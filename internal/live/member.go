package live

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"time"

	"casched/internal/agent"
	"casched/internal/task"
)

// This file is the member half of the federation protocol: the
// "Member" RPC service every single-core live agent exposes, through
// which a federated dispatcher (internal/fed) drives the agent's core
// — Evaluate/Commit for exact fan-out decisions, Submit/SubmitBatch
// for delegated ones, partition membership, execution feedback and
// the periodic load summary. The dispatcher stamps every timestamp,
// so member clocks never skew the decisions.

// MemberService is the RPC facade over the agent's core. It is
// registered on every single-core agent; sharded agents (Shards > 1)
// cannot federate — a member is itself one partition.
type MemberService struct{ a *Agent }

// memberCore resolves the agent's single core, rejecting sharded
// engines.
func (s *MemberService) memberCore() (*agent.Core, error) {
	if s.a.core == nil {
		return nil, errors.New("live: a sharded agent cannot serve as a federation member")
	}
	return s.a.core, nil
}

// memberRequest resolves a wire task into a core request.
func memberRequest(args MemberTaskArgs) (agent.Request, error) {
	spec, err := task.Resolve(args.Problem, args.Variant)
	if err != nil {
		return agent.Request{}, err
	}
	return agent.Request{
		JobID:     args.JobID,
		TaskID:    args.TaskID,
		Attempt:   args.Attempt,
		Spec:      spec,
		Arrival:   args.Arrival,
		Submitted: args.Submitted,
		Tenant:    args.Tenant,
		Deadline:  args.Deadline,
	}, nil
}

// Evaluate runs the member's heuristic against its partition without
// committing.
func (s *MemberService) Evaluate(args MemberTaskArgs, reply *MemberEvalReply) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	req, err := memberRequest(args)
	if err != nil {
		return err
	}
	cand, err := core.Evaluate(req)
	if errors.Is(err, agent.ErrUnschedulable) {
		reply.Unschedulable = true
		return nil
	}
	if errors.Is(err, agent.ErrDeadlineUnmet) {
		reply.DeadlineUnmet = true
		return nil
	}
	if err != nil {
		return err
	}
	*reply = MemberEvalReply{Server: cand.Server, Score: cand.Score, Tie: cand.Tie, Scored: cand.Scored}
	return nil
}

// Commit commits a previously evaluated placement.
func (s *MemberService) Commit(args MemberCommitArgs, reply *MemberDecisionReply) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	if err := s.a.admitTerm(args.Task.Term); err != nil {
		return err
	}
	req, err := memberRequest(args.Task)
	if err != nil {
		return err
	}
	dec, err := core.Commit(req, args.Server)
	if err != nil {
		return err
	}
	*reply = MemberDecisionReply{Server: dec.Server, Predicted: dec.Predicted, HasPrediction: dec.HasPrediction}
	return nil
}

// Submit delegates one whole decision to the member.
func (s *MemberService) Submit(args MemberTaskArgs, reply *MemberDecisionReply) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	if err := s.a.admitTerm(args.Term); err != nil {
		return err
	}
	req, err := memberRequest(args)
	if err != nil {
		return err
	}
	dec, err := core.Submit(req)
	if errors.Is(err, agent.ErrUnschedulable) {
		reply.Unschedulable = true
		return nil
	}
	if errors.Is(err, agent.ErrDeadlineUnmet) {
		reply.DeadlineUnmet = true
		return nil
	}
	if err != nil {
		return err
	}
	*reply = MemberDecisionReply{Server: dec.Server, Predicted: dec.Predicted, HasPrediction: dec.HasPrediction}
	return nil
}

// SubmitBatch pipelines a burst through the member's batch prediction
// cache. Per-request failures leave zero decisions; their joined
// errors travel flattened in the reply rather than failing the RPC.
func (s *MemberService) SubmitBatch(args MemberBatchArgs, reply *MemberBatchReply) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	var term uint64
	for _, t := range args.Tasks {
		if t.Term > term {
			term = t.Term
		}
	}
	if err := s.a.admitTerm(term); err != nil {
		return err
	}
	reqs := make([]agent.Request, len(args.Tasks))
	for i, t := range args.Tasks {
		req, err := memberRequest(t)
		if err != nil {
			return fmt.Errorf("live: batch job %d: %w", t.JobID, err)
		}
		reqs[i] = req
	}
	decs, err := core.SubmitBatch(reqs)
	reply.Decisions = make([]MemberDecisionReply, len(decs))
	for i, d := range decs {
		reply.Decisions[i] = MemberDecisionReply{Server: d.Server, Predicted: d.Predicted, HasPrediction: d.HasPrediction}
	}
	if err != nil {
		reply.Error = err.Error()
	}
	return nil
}

// CanSolve answers the dispatcher's eligibility probe.
func (s *MemberService) CanSolve(args MemberCanSolveArgs, reply *MemberCanSolveReply) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	spec, err := task.Resolve(args.Problem, args.Variant)
	if err != nil {
		return err
	}
	reply.OK = core.CanSolve(spec)
	return nil
}

// AddServer registers a server into the member's partition.
func (s *MemberService) AddServer(args MemberServerArgs, _ *Ack) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	core.AddServer(args.Name)
	return nil
}

// RemoveServer withdraws a server from the member's partition.
func (s *MemberService) RemoveServer(args MemberServerArgs, _ *Ack) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	core.RemoveServer(args.Name)
	return nil
}

// Complete feeds a completion message to the member's core.
func (s *MemberService) Complete(args TaskDoneArgs, _ *Ack) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	core.Complete(args.TaskKey, args.Server, args.At)
	return nil
}

// Report feeds a monitor report to the member's core.
func (s *MemberService) Report(args LoadReportArgs, _ *Ack) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	core.Report(args.Name, args.Load, args.At)
	return nil
}

// Summary returns the member's load summary — also the dispatcher's
// liveness probe.
func (s *MemberService) Summary(_ Ack, reply *MemberSummaryReply) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	*reply = MemberSummaryReply(core.LoadSummary()) // same fields, in the same order
	return nil
}

// Relay streams the member's decision/completion events after the
// requested ledger sequence (the federation dispatcher's near-fresh
// routing feed). A member running with the relay off answers
// Disabled; members older than this method don't have it at all, and
// the dispatcher classifies the resulting rpc "can't find method"
// error the same way.
func (s *MemberService) Relay(args MemberRelayArgs, reply *MemberRelayReply) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	delta, ok := core.RelaySince(args.Since)
	if !ok {
		reply.Disabled = true
		return nil
	}
	reply.From, reply.To, reply.Resync = delta.From, delta.To, delta.Resync
	if len(delta.Events) > 0 {
		reply.Events = make([]RelayEvent, len(delta.Events))
		for i, ev := range delta.Events {
			reply.Events[i] = RelayEvent{
				Seq:      ev.Seq,
				Kind:     uint8(ev.Kind),
				JobID:    ev.JobID,
				Tenant:   ev.Tenant,
				Server:   ev.Server,
				Time:     ev.Time,
				Ready:    ev.Ready,
				HasReady: ev.HasReady,
			}
		}
	}
	return nil
}

// Partition lists the servers this member currently owns. A freshly
// promoted dispatcher queries it to adopt the federation's real
// partition before the servers re-register through the new leader.
func (s *MemberService) Partition(_ Ack, reply *MemberPartitionReply) error {
	core, err := s.memberCore()
	if err != nil {
		return err
	}
	reply.Servers = core.Servers()
	return nil
}

// WireCaps answers the framed-wire capability probe (see frame.go): a
// dispatcher asks over gob before opening a framed connection for the
// hot decision RPCs. Members that predate this method answer net/rpc's
// "can't find method" and the dispatcher stays on gob.
func (s *MemberService) WireCaps(_ Ack, reply *MemberWireCapsReply) error {
	reply.FrameVersion = FrameVersion
	return nil
}

// Fence raises the member's election fencing watermark — called by a
// freshly promoted dispatcher on every member before it serves
// clients, so a deposed leader's in-flight commits are refused even
// if the new leader has not placed anything yet.
func (s *MemberService) Fence(args MemberFenceArgs, _ *Ack) error {
	return s.a.admitTerm(args.Term)
}

// joinTimeout bounds the dial and the Fed.Join RPC so a blackholed
// dispatcher address fails agent startup instead of hanging it.
const joinTimeout = 5 * time.Second

// join announces this agent to a federation dispatcher.
func join(dispatcherAddr string, args JoinArgs) error {
	conn, err := net.DialTimeout("tcp", dispatcherAddr, joinTimeout)
	if err != nil {
		return fmt.Errorf("live: dial federation dispatcher: %w", err)
	}
	client := rpc.NewClient(conn)
	defer client.Close()
	call := client.Go("Fed.Join", args, &Ack{}, make(chan *rpc.Call, 1))
	timer := time.NewTimer(joinTimeout)
	defer timer.Stop()
	select {
	case <-call.Done:
		if call.Error != nil {
			return fmt.Errorf("live: join federation: %w", call.Error)
		}
		return nil
	case <-timer.C:
		return fmt.Errorf("live: join federation: no answer from %s within %s", dispatcherAddr, joinTimeout)
	}
}

// leave announces this agent's graceful departure to one dispatcher.
// Best-effort: unreachable dispatchers and ones predating Fed.Leave
// ("can't find method") are simply skipped — eviction cleans up.
func leave(dispatcherAddr string, args LeaveArgs) {
	conn, err := net.DialTimeout("tcp", dispatcherAddr, joinTimeout)
	if err != nil {
		return
	}
	client := rpc.NewClient(conn)
	defer client.Close()
	call := client.Go("Fed.Leave", args, &Ack{}, make(chan *rpc.Call, 1))
	timer := time.NewTimer(joinTimeout)
	defer timer.Stop()
	select {
	case <-call.Done:
	case <-timer.C:
	}
}
