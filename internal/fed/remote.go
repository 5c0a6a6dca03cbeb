package fed

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"time"

	"casched/internal/agent"
	"casched/internal/live"
	"casched/internal/relay"
	"casched/internal/task"
)

// ErrTimeout marks a member RPC that exceeded the per-member budget;
// it counts as a transport failure toward eviction.
var ErrTimeout = errors.New("fed: member call timed out")

// defaultTimeout bounds member RPCs when RemoteConfig leaves Timeout
// zero.
const defaultTimeout = 2 * time.Second

// Remote is the TCP Member: a handle on a remote casagent's "Member"
// RPC service, speaking the live wire protocol. Calls are bounded by
// the per-member timeout; a timed-out or broken connection is dropped
// and redialed lazily on the next call, so a member that recovers
// becomes reachable again without dispatcher intervention (the
// readmission probe exercises exactly this path).
//
// Tasks cross the wire as (Problem, Variant) registry pairs, so only
// registry-resolvable specs can be federated over TCP — the same
// restriction the client protocol has.
type Remote struct {
	name    string
	addr    string
	timeout time.Duration

	mu     sync.Mutex
	client *rpc.Client
	// relayUnsupported caches a definitive "this member does not speak
	// relay" answer (Disabled reply, or an rpc can't-find-method error
	// from a pre-relay binary), so the dispatcher asks at most once
	// per handle. A rejoin creates a fresh Remote, re-probing.
	relayUnsupported bool

	// wire is the negotiated framed connection carrying the hot member
	// RPCs (Evaluate/Commit/Submit/SubmitBatch/Summary/Relay/Complete)
	// with a pipelined request window; everything else stays on gob.
	// Nil until the Member.WireCaps probe succeeds. wireUnsupported
	// caches the definitive negotiated-down answer (a member predating
	// WireCaps, or one reporting an older frame version) so an old gob
	// peer is probed at most once per handle; forceGob pins the handle
	// to gob regardless, for parity tests and rollback.
	wire            *live.FrameClient
	wireUnsupported bool
	forceGob        bool

	// termSource, when set, stamps every mutating call with the
	// dispatcher's current leader term — the fencing token HA-aware
	// members check commits against. Nil (and a zero stamp) outside HA
	// deployments, which old members decode as "unfenced" and always
	// admit. Set once, before the handle is published to the
	// dispatcher (SetTermSource), so reads need no lock.
	termSource func() uint64
}

// SetTermSource installs the fencing-term source. Must be called
// before the Remote is handed to a Dispatcher.
func (r *Remote) SetTermSource(fn func() uint64) { r.termSource = fn }

// term returns the current fencing stamp (0 = unfenced).
func (r *Remote) term() uint64 {
	if r.termSource == nil {
		return 0
	}
	return r.termSource()
}

// NewRemote returns a lazy handle on the member listening at addr. A
// non-positive timeout selects the default (2s).
func NewRemote(name, addr string, timeout time.Duration) *Remote {
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	return &Remote{name: name, addr: addr, timeout: timeout}
}

func (r *Remote) Name() string { return r.name }

// Addr returns the member's RPC address.
func (r *Remote) Addr() string { return r.addr }

// conn returns the live client, dialing if needed.
func (r *Remote) conn() (*rpc.Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client != nil {
		return r.client, nil
	}
	c, err := net.DialTimeout("tcp", r.addr, r.timeout)
	if err != nil {
		return nil, fmt.Errorf("fed: dial member %s: %w: %w", r.name, ErrUnreachable, err)
	}
	r.client = rpc.NewClient(c)
	return r.client, nil
}

// reset detaches the connection so the next call redials. With
// deferred set the old client is closed only after a grace period of
// one timeout: a timed-out call proves nothing about OTHER calls in
// flight on the same connection (the gossip fetch runs outside the
// dispatch lock and can overlap a commit), and closing immediately
// would abort them all as spurious uncertain failures. A connection
// that already broke is closed at once — everything on it is failing
// anyway.
func (r *Remote) reset(c *rpc.Client, deferred bool) {
	r.mu.Lock()
	if r.client == c {
		r.client = nil
	}
	r.mu.Unlock()
	if c == nil {
		return
	}
	if deferred {
		time.AfterFunc(r.timeout, func() { c.Close() })
		return
	}
	c.Close()
}

// call performs one bounded RPC. The error taxonomy drives the
// dispatcher's safety decisions: a server-side error (the member
// answered, the call failed) keeps the connection and carries no
// transport sentinel; a dial failure wraps plain ErrUnreachable (the
// request provably never left, rerouting is safe); a timeout or a
// connection that broke mid-call wraps ErrUncertain (the request may
// have been executed member-side, mutating calls must not be
// rerouted). Unreachable-class failures drop the connection so the
// next call redials.
func (r *Remote) call(method string, args, reply any) error {
	c, err := r.conn()
	if err != nil {
		return err
	}
	call := c.Go(method, args, reply, make(chan *rpc.Call, 1))
	timer := time.NewTimer(r.timeout)
	defer timer.Stop()
	select {
	case <-call.Done:
		if call.Error == nil {
			return nil
		}
		if _, ok := call.Error.(rpc.ServerError); ok {
			return fmt.Errorf("fed: member %s: %w", r.name, call.Error)
		}
		// Everything else — including rpc.ErrShutdown — is classified
		// uncertain: net/rpc also fails PENDING calls with ErrShutdown
		// when the connection dies mid-flight, so the error does not
		// prove the request was never sent. Conservative beats a
		// double placement.
		r.reset(c, false)
		return fmt.Errorf("fed: member %s: %w: %w", r.name, ErrUncertain, call.Error)
	case <-timer.C:
		r.reset(c, true)
		return fmt.Errorf("fed: member %s: %s: %w: %w", r.name, method, ErrUncertain, ErrTimeout)
	}
}

// ForceGob pins the handle to the legacy gob wire, skipping framed
// negotiation entirely. Must be called before the Remote is handed to
// a Dispatcher; parity tests use it to compare the two protocols.
func (r *Remote) ForceGob() {
	r.mu.Lock()
	r.forceGob = true
	r.mu.Unlock()
}

// wireClient returns the framed connection for the hot member RPCs,
// negotiating it on first use: a gob Member.WireCaps probe decides
// whether the member speaks the framed protocol. Members that predate
// the method (rpc "can't find method") or report an older frame
// version are remembered as gob-only; transient probe or dial failures
// return nil without caching, so the next call re-probes. Never blocks
// past the member timeout.
func (r *Remote) wireClient() *live.FrameClient {
	r.mu.Lock()
	if r.forceGob || r.wireUnsupported {
		r.mu.Unlock()
		return nil
	}
	if r.wire != nil {
		w := r.wire
		r.mu.Unlock()
		return w
	}
	r.mu.Unlock()

	var reply live.MemberWireCapsReply
	if err := r.call("Member.WireCaps", live.Ack{}, &reply); err != nil {
		if missingMethod(err) {
			r.mu.Lock()
			r.wireUnsupported = true
			r.mu.Unlock()
		}
		return nil
	}
	if reply.FrameVersion < live.FrameVersion {
		r.mu.Lock()
		r.wireUnsupported = true
		r.mu.Unlock()
		return nil
	}
	conn, err := net.DialTimeout("tcp", r.addr, r.timeout)
	if err != nil {
		return nil
	}
	fc, err := live.NewFrameClient(conn, r.timeout)
	if err != nil {
		return nil
	}
	r.mu.Lock()
	if r.wire == nil {
		r.wire = fc
	} else {
		// A concurrent caller won the race; keep its connection.
		go fc.Close()
	}
	w := r.wire
	r.mu.Unlock()
	return w
}

// resetWire drops the framed connection so the next hot call
// renegotiates, mirroring reset on the gob side.
func (r *Remote) resetWire(w *live.FrameClient) {
	r.mu.Lock()
	if r.wire == w {
		r.wire = nil
	}
	r.mu.Unlock()
	if w != nil {
		w.Close()
	}
}

// wireErr classifies a framed-call failure with exactly the gob
// taxonomy: a WireError is a delivered server-side answer (keep the
// connection, no transport sentinel); a timeout wraps
// ErrUncertain+ErrTimeout; any other transport failure wraps
// ErrUncertain. Transport-class failures drop the framed connection so
// the next call renegotiates.
func (r *Remote) wireErr(w *live.FrameClient, method string, err error) error {
	var we live.WireError
	if errors.As(err, &we) {
		return fmt.Errorf("fed: member %s: %s", r.name, string(we))
	}
	r.resetWire(w)
	if errors.Is(err, live.ErrWireTimeout) {
		return fmt.Errorf("fed: member %s: %s: %w: %w", r.name, method, ErrUncertain, ErrTimeout)
	}
	return fmt.Errorf("fed: member %s: %w: %w", r.name, ErrUncertain, err)
}

// wireEquivalent reports whether a spec matches the registry
// definition the member will resolve from its (Problem, Variant)
// key. A spec that reuses a registry key but carries rewritten costs
// or memory would silently schedule against the wrong cost table on
// the member side, so it is rejected as non-transportable instead. The
// registry's own pointer (what task.Resolve hands out, and what every
// request decoded off the client wire carries) is equivalent by
// identity; only a foreign spec pays the comparison of the cost maps.
func wireEquivalent(spec, registry *task.Spec) bool {
	return spec == registry ||
		spec.MemoryMB == registry.MemoryMB && maps.Equal(spec.CostOn, registry.CostOn)
}

// wireTask maps a core request onto the member wire. Specs must be
// registry-resolvable AND identical to the registry definition —
// (Problem, Variant) is all that crosses the wire.
func wireTask(req agent.Request) (live.MemberTaskArgs, error) {
	if req.Spec == nil {
		return live.MemberTaskArgs{}, fmt.Errorf("fed: job %d has no spec", req.JobID)
	}
	resolved, err := task.Resolve(req.Spec.Problem, req.Spec.Variant)
	if err != nil {
		return live.MemberTaskArgs{}, fmt.Errorf("fed: job %d is not wire-transportable: %w", req.JobID, err)
	}
	if !wireEquivalent(req.Spec, resolved) {
		return live.MemberTaskArgs{}, fmt.Errorf("fed: job %d is not wire-transportable: spec %s/%d differs from the registry definition",
			req.JobID, req.Spec.Problem, req.Spec.Variant)
	}
	return live.MemberTaskArgs{
		JobID:     req.JobID,
		TaskID:    req.TaskID,
		Attempt:   req.Attempt,
		Problem:   req.Spec.Problem,
		Variant:   req.Spec.Variant,
		Arrival:   req.Arrival,
		Submitted: req.Submitted,
		Tenant:    req.Tenant,
		Deadline:  req.Deadline,
	}, nil
}

func (r *Remote) AddServer(server string) error {
	return r.call("Member.AddServer", live.MemberServerArgs{Name: server}, &live.Ack{})
}

func (r *Remote) RemoveServer(server string) error {
	return r.call("Member.RemoveServer", live.MemberServerArgs{Name: server}, &live.Ack{})
}

func (r *Remote) CanSolve(spec *task.Spec) (bool, error) {
	if spec == nil {
		return false, nil
	}
	resolved, err := task.Resolve(spec.Problem, spec.Variant)
	if err != nil || !wireEquivalent(spec, resolved) {
		return false, nil // not wire-transportable: not this member's problem
	}
	var reply live.MemberCanSolveReply
	if err := r.call("Member.CanSolve", live.MemberCanSolveArgs{Problem: spec.Problem, Variant: spec.Variant}, &reply); err != nil {
		return false, err
	}
	return reply.OK, nil
}

func (r *Remote) Evaluate(req agent.Request) (agent.Candidate, error) {
	args, err := wireTask(req)
	if err != nil {
		return agent.Candidate{}, err
	}
	var reply live.MemberEvalReply
	if w := r.wireClient(); w != nil {
		if reply, err = w.Evaluate(&args); err != nil {
			return agent.Candidate{}, r.wireErr(w, "Member.Evaluate", err)
		}
	} else if err := r.call("Member.Evaluate", args, &reply); err != nil {
		return agent.Candidate{}, err
	}
	if reply.Unschedulable {
		return agent.Candidate{}, agent.ErrUnschedulable
	}
	if reply.DeadlineUnmet {
		return agent.Candidate{}, agent.ErrDeadlineUnmet
	}
	return agent.Candidate{Server: reply.Server, Score: reply.Score, Tie: reply.Tie, Scored: reply.Scored}, nil
}

func (r *Remote) Commit(req agent.Request, server string) (agent.Decision, error) {
	return r.StartCommit(req, server)()
}

// StartCommit is the commitStarter capability. On the framed wire it
// returns as soon as the Commit frame is written: the connection is
// FIFO and the member serves it sequentially, so the commit is ordered
// before every later call of this handle, and wait only collects the
// answer. A handle negotiated down to gob has no such order (net/rpc
// serves requests concurrently), so there the whole commit runs before
// StartCommit returns and wait hands back its result.
func (r *Remote) StartCommit(req agent.Request, server string) (wait func() (agent.Decision, error)) {
	args, err := wireTask(req)
	if err != nil {
		return func() (agent.Decision, error) { return agent.Decision{}, err }
	}
	args.Term = r.term()
	commit := live.MemberCommitArgs{Task: args, Server: server}
	job := req.JobID
	var await func() (live.MemberDecisionReply, error)
	w := r.wireClient()
	if w != nil {
		await = w.StartCommit(&commit)
	} else {
		var reply live.MemberDecisionReply
		err := r.call("Member.Commit", commit, &reply)
		await = func() (live.MemberDecisionReply, error) { return reply, err }
	}
	return func() (agent.Decision, error) {
		reply, err := await()
		if err != nil {
			if w != nil {
				err = r.wireErr(w, "Member.Commit", err)
			}
			return agent.Decision{}, err
		}
		return agent.Decision{JobID: job, Server: reply.Server,
			Predicted: reply.Predicted, HasPrediction: reply.HasPrediction}, nil
	}
}

func (r *Remote) Submit(req agent.Request) (agent.Decision, error) {
	args, err := wireTask(req)
	if err != nil {
		return agent.Decision{}, err
	}
	args.Term = r.term()
	var reply live.MemberDecisionReply
	if w := r.wireClient(); w != nil {
		if reply, err = w.Submit(&args); err != nil {
			return agent.Decision{}, r.wireErr(w, "Member.Submit", err)
		}
	} else if err := r.call("Member.Submit", args, &reply); err != nil {
		return agent.Decision{}, err
	}
	if reply.Unschedulable {
		return agent.Decision{}, agent.ErrUnschedulable
	}
	if reply.DeadlineUnmet {
		return agent.Decision{}, agent.ErrDeadlineUnmet
	}
	return agent.Decision{JobID: req.JobID, Server: reply.Server,
		Predicted: reply.Predicted, HasPrediction: reply.HasPrediction}, nil
}

func (r *Remote) SubmitBatch(reqs []agent.Request) ([]agent.Decision, error) {
	args := live.MemberBatchArgs{Tasks: make([]live.MemberTaskArgs, len(reqs))}
	stamp := r.term()
	for i, req := range reqs {
		t, err := wireTask(req)
		if err != nil {
			return make([]agent.Decision, len(reqs)), err
		}
		t.Term = stamp
		args.Tasks[i] = t
	}
	var reply live.MemberBatchReply
	if w := r.wireClient(); w != nil {
		var err error
		if reply, err = w.SubmitBatch(&args); err != nil {
			return make([]agent.Decision, len(reqs)), r.wireErr(w, "Member.SubmitBatch", err)
		}
	} else if err := r.call("Member.SubmitBatch", args, &reply); err != nil {
		return make([]agent.Decision, len(reqs)), err
	}
	out := make([]agent.Decision, len(reqs))
	for i, d := range reply.Decisions {
		if i >= len(out) {
			break
		}
		out[i] = agent.Decision{JobID: reqs[i].JobID, Server: d.Server,
			Predicted: d.Predicted, HasPrediction: d.HasPrediction}
	}
	if reply.Error != "" {
		return out, fmt.Errorf("fed: member %s batch: %s", r.name, reply.Error)
	}
	return out, nil
}

func (r *Remote) Complete(jobID int, server string, at float64) error {
	args := live.TaskDoneArgs{TaskKey: jobID, Server: server, At: at}
	if w := r.wireClient(); w != nil {
		if err := w.Complete(&args); err != nil {
			return r.wireErr(w, "Member.Complete", err)
		}
		return nil
	}
	return r.call("Member.Complete", args, &live.Ack{})
}

func (r *Remote) Report(server string, load, at float64) error {
	return r.call("Member.Report", live.LoadReportArgs{Name: server, Load: load, At: at}, &live.Ack{})
}

func (r *Remote) Summary() (Summary, error) {
	var reply live.MemberSummaryReply
	if w := r.wireClient(); w != nil {
		var err error
		if reply, err = w.Summary(); err != nil {
			return Summary{}, r.wireErr(w, "Member.Summary", err)
		}
	} else if err := r.call("Member.Summary", live.Ack{}, &reply); err != nil {
		return Summary{}, err
	}
	return Summary(reply), nil // the wire struct is the summary, field for field
}

// RelaySince pulls the member's relay events after the given ledger
// sequence. ok is false — with a nil error — when the member does not
// speak relay: either it answers Disabled (relay off member-side), or
// it predates the Member.Relay method entirely, in which case net/rpc
// answers a ServerError naming the missing method; both are cached so
// an old member is asked exactly once. Transport failures surface as
// errors and count toward eviction like any other member call.
func (r *Remote) RelaySince(after uint64) (relay.Delta, bool, error) {
	r.mu.Lock()
	unsupported := r.relayUnsupported
	r.mu.Unlock()
	if unsupported {
		return relay.Delta{}, false, nil
	}
	var reply live.MemberRelayReply
	if w := r.wireClient(); w != nil {
		// A framed member necessarily has Member.Relay (it postdates it),
		// so only Disabled can negotiate relay down here.
		var err error
		if reply, err = w.Relay(&live.MemberRelayArgs{Since: after}); err != nil {
			return relay.Delta{}, false, r.wireErr(w, "Member.Relay", err)
		}
	} else if err := r.call("Member.Relay", live.MemberRelayArgs{Since: after}, &reply); err != nil {
		var srvErr rpc.ServerError
		if errors.As(err, &srvErr) && strings.Contains(string(srvErr), "can't find method") {
			// An old member: the method does not exist. Remember, so the
			// dispatcher stops asking this handle.
			r.mu.Lock()
			r.relayUnsupported = true
			r.mu.Unlock()
			return relay.Delta{}, false, nil
		}
		return relay.Delta{}, false, err
	}
	if reply.Disabled {
		r.mu.Lock()
		r.relayUnsupported = true
		r.mu.Unlock()
		return relay.Delta{}, false, nil
	}
	d := relay.Delta{From: reply.From, To: reply.To, Resync: reply.Resync}
	if len(reply.Events) > 0 {
		d.Events = make([]relay.Event, len(reply.Events))
		for i, ev := range reply.Events {
			d.Events[i] = relay.Event{
				Seq:      ev.Seq,
				Kind:     relay.Kind(ev.Kind),
				JobID:    ev.JobID,
				Tenant:   ev.Tenant,
				Server:   ev.Server,
				Time:     ev.Time,
				Ready:    ev.Ready,
				HasReady: ev.HasReady,
			}
		}
	}
	return d, true, nil
}

// missingMethod reports the rpc error a pre-HA member answers when
// asked for a method it does not have — treated as "capability
// absent", never as a transport failure.
func missingMethod(err error) bool {
	var srvErr rpc.ServerError
	return errors.As(err, &srvErr) && strings.Contains(string(srvErr), "can't find method")
}

// Fence stamps the member with the new leader's term (the fencer
// capability). A member that predates the Fence RPC simply cannot be
// fenced; that is reported as success, because fencing is best-effort
// by contract.
func (r *Remote) Fence(term uint64) error {
	err := r.call("Member.Fence", live.MemberFenceArgs{Term: term}, &live.Ack{})
	if err != nil && missingMethod(err) {
		return nil
	}
	return err
}

// Partition asks the member for its current server set (the
// partitionSource capability). ok is false — with a nil error — when
// the member predates the Partition RPC; the promoting dispatcher
// then waits for the servers' own re-registrations instead.
func (r *Remote) Partition() ([]string, bool, error) {
	var reply live.MemberPartitionReply
	if err := r.call("Member.Partition", live.Ack{}, &reply); err != nil {
		if missingMethod(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	return reply.Servers, true, nil
}

func (r *Remote) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wire != nil {
		r.wire.Close()
		r.wire = nil
	}
	if r.client != nil {
		err := r.client.Close()
		r.client = nil
		return err
	}
	return nil
}
