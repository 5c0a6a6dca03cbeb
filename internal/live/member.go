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

// This file is the member half of the federation protocol: what each
// call a federated dispatcher (internal/fed) makes on a single-core
// agent does to the agent's core — Evaluate/Commit for exact fan-out
// decisions, Submit/SubmitBatch for delegated ones, the relay feed.
// The calls arrive as frames on the member wire (frame.go); the frame
// handler (frameserver.go) decodes into its scratch, runs the methods
// below — the calls that are one line against the core are inline in
// its switch — and encodes the reply. The dispatcher stamps every
// timestamp, so member clocks never skew the decisions. Sharded agents
// (Shards > 1) cannot federate — a member is itself one partition.

// memberRequest resolves a wire task into a core request.
func memberRequest(args *MemberTaskArgs) (agent.Request, error) {
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

// evaluate runs the member's heuristic on h.task against its partition
// without committing. "No server of this partition solves it" and an
// admission refusal are answers (h.eval), not errors.
func (h *frameHandler) evaluate() error {
	req, err := memberRequest(&h.task)
	if err != nil {
		return err
	}
	cand, err := h.a.core.Evaluate(req)
	switch {
	case errors.Is(err, agent.ErrUnschedulable):
		h.eval.Unschedulable = true
	case errors.Is(err, agent.ErrDeadlineUnmet):
		h.eval.DeadlineUnmet = true
	case err != nil:
		return err
	default:
		h.eval = MemberEvalReply{Server: cand.Server, Score: cand.Score, Tie: cand.Tie, Scored: cand.Scored}
	}
	return nil
}

// commitTask commits h.commit, a previously evaluated placement.
func (h *frameHandler) commitTask() error {
	if err := h.a.admitTerm(h.commit.Task.Term); err != nil {
		return err
	}
	req, err := memberRequest(&h.commit.Task)
	if err != nil {
		return err
	}
	dec, err := h.a.core.Commit(req, h.commit.Server)
	h.dec = MemberDecisionReply{Server: dec.Server, Predicted: dec.Predicted, HasPrediction: dec.HasPrediction}
	return err
}

// submit delegates the whole decision on h.task to the member.
func (h *frameHandler) submit() error {
	if err := h.a.admitTerm(h.task.Term); err != nil {
		return err
	}
	req, err := memberRequest(&h.task)
	if err != nil {
		return err
	}
	dec, err := h.a.core.Submit(req)
	switch {
	case errors.Is(err, agent.ErrUnschedulable):
		h.dec = MemberDecisionReply{Unschedulable: true}
	case errors.Is(err, agent.ErrDeadlineUnmet):
		h.dec = MemberDecisionReply{DeadlineUnmet: true}
	case err != nil:
		return err
	default:
		h.dec = MemberDecisionReply{Server: dec.Server, Predicted: dec.Predicted, HasPrediction: dec.HasPrediction}
	}
	return nil
}

// submitBatch pipelines the burst h.batch through the member's core
// (agent.Core.SubmitBatch). Per-request failures leave zero decisions; their
// joined errors travel flattened in the reply rather than failing the
// call.
func (h *frameHandler) submitBatch() error {
	var term uint64
	for i := range h.batch.Tasks {
		term = max(term, h.batch.Tasks[i].Term)
	}
	if err := h.a.admitTerm(term); err != nil {
		return err
	}
	reqs := make([]agent.Request, len(h.batch.Tasks))
	for i := range h.batch.Tasks {
		req, err := memberRequest(&h.batch.Tasks[i])
		if err != nil {
			return fmt.Errorf("live: batch job %d: %w", h.batch.Tasks[i].JobID, err)
		}
		reqs[i] = req
	}
	decs, err := h.a.core.SubmitBatch(reqs)
	h.brep = MemberBatchReply{Decisions: make([]MemberDecisionReply, len(decs))}
	for i, d := range decs {
		h.brep.Decisions[i] = MemberDecisionReply{Server: d.Server, Predicted: d.Predicted, HasPrediction: d.HasPrediction}
	}
	if err != nil {
		h.brep.Error = err.Error()
	}
	return nil
}

// relay fills h.rrep with the member's decision/completion events after
// the requested ledger sequence (the federation dispatcher's near-fresh
// routing feed). A member running with the relay off answers Disabled.
func (h *frameHandler) relay(since uint64) {
	h.rrep = MemberRelayReply{}
	delta, ok := h.a.core.RelaySince(since)
	if !ok {
		h.rrep.Disabled = true
		return
	}
	h.rrep.From, h.rrep.To, h.rrep.Resync = delta.From, delta.To, delta.Resync
	if len(delta.Events) > 0 {
		h.rrep.Events = make([]RelayEvent, len(delta.Events))
		for i, ev := range delta.Events {
			h.rrep.Events[i] = RelayEvent{
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
}

// joinTimeout bounds the dial and the Fed.* RPC so a blackholed
// dispatcher address fails agent startup instead of hanging it.
const joinTimeout = 5 * time.Second

// fedCall makes one bounded control call on a federation dispatcher's
// "Fed" service — Fed.Join at startup, Fed.Leave at graceful departure —
// naming what it was doing in the error.
func fedCall(dispatcherAddr, method, what string, args any) error {
	conn, err := net.DialTimeout("tcp", dispatcherAddr, joinTimeout)
	if err != nil {
		return fmt.Errorf("live: dial federation dispatcher: %w", err)
	}
	client := rpc.NewClient(conn)
	defer client.Close()
	call := client.Go(method, args, &Ack{}, make(chan *rpc.Call, 1))
	timer := time.NewTimer(joinTimeout)
	defer timer.Stop()
	select {
	case <-call.Done:
		if call.Error != nil {
			return fmt.Errorf("live: %s: %w", what, call.Error)
		}
		return nil
	case <-timer.C:
		return fmt.Errorf("live: %s: no answer from %s within %s", what, dispatcherAddr, joinTimeout)
	}
}
