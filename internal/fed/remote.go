package fed

import (
	"errors"
	"fmt"
	"maps"
	"net"
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

// Remote is the TCP Member: a handle on a remote casagent, driving all
// thirteen member calls over one framed connection (live.FrameClient).
// The connection is FIFO and the member serves it in order, so every
// call of this handle is served after every call written before it.
// Calls are bounded by the per-member timeout; a timed-out or broken
// connection is dropped and redialed lazily on the next call, so a
// member that recovers becomes reachable again without dispatcher
// intervention (the readmission probe exercises exactly this path).
//
// Tasks cross the wire as (Problem, Variant) registry pairs, so only
// registry-resolvable specs can be federated over TCP — the same
// restriction the client protocol has.
type Remote struct {
	name    string
	addr    string
	timeout time.Duration

	mu   sync.Mutex
	wire *live.FrameClient // nil until the first call, and after a transport failure
	// relayUnsupported caches the member's Disabled answer to a relay
	// pull, so the dispatcher asks at most once per handle. A rejoin
	// creates a fresh Remote, re-probing.
	relayUnsupported bool

	// termSource, when set, stamps every mutating call with the
	// dispatcher's current leader term — the fencing token HA-aware
	// members check commits against. Nil (and a zero stamp, which
	// members always admit) outside HA deployments. Set once, before the
	// handle is published to the dispatcher (SetTermSource), so reads
	// need no lock.
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

// Addr returns the member's listen address.
func (r *Remote) Addr() string { return r.addr }

// The error taxonomy drives the dispatcher's safety decisions. A dial
// or handshake failure wraps plain ErrUnreachable: no request frame was
// written, the call provably never left, rerouting is safe (wireClient).
// A failure after the write — a timeout, a connection that broke
// mid-call — wraps ErrUncertain: the request may have been executed
// member-side, mutating calls must not be rerouted. A msgError frame is
// a delivered answer (the member answered, the call failed; a
// stale-term refusal is one): it keeps the connection, carries no
// transport sentinel, and neither evicts nor reroutes (wireErr).

// wireClient returns the framed connection, dialing it on first use
// under r.mu so that concurrent first callers share one connection.
// Never blocks past the member timeout per waiting caller.
func (r *Remote) wireClient() (*live.FrameClient, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wire != nil {
		return r.wire, nil
	}
	conn, err := net.DialTimeout("tcp", r.addr, r.timeout)
	if err != nil {
		return nil, fmt.Errorf("fed: dial member %s: %w: %w", r.name, ErrUnreachable, err)
	}
	// A member on another frame version fails here, with both versions
	// named: unreachable until it is upgraded, not a dead peer.
	w, err := live.NewFrameClient(conn, r.timeout)
	if err != nil {
		return nil, fmt.Errorf("fed: member %s: %w: %w", r.name, ErrUnreachable, err)
	}
	r.wire = w
	return w, nil
}

// resetWire drops the framed connection so the next call redials.
func (r *Remote) resetWire(w *live.FrameClient) {
	r.mu.Lock()
	if r.wire == w {
		r.wire = nil
	}
	r.mu.Unlock()
	w.Close()
}

// wireErr classifies the failure of a call whose frame was handed to
// the connection: a WireError is a delivered answer; a timeout wraps
// ErrUncertain+ErrTimeout; any other transport failure wraps
// ErrUncertain. Transport-class failures drop the connection.
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

// cold runs one of the calls made once per registration, report or
// promotion rather than per decision.
func (r *Remote) cold(method string, call func(*live.FrameClient) error) error {
	w, err := r.wireClient()
	if err != nil {
		return err
	}
	if err := call(w); err != nil {
		return r.wireErr(w, method, err)
	}
	return nil
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
	return r.cold("Member.AddServer", func(w *live.FrameClient) error { return w.AddServer(server) })
}

func (r *Remote) RemoveServer(server string) error {
	return r.cold("Member.RemoveServer", func(w *live.FrameClient) error { return w.RemoveServer(server) })
}

func (r *Remote) CanSolve(spec *task.Spec) (ok bool, err error) {
	if spec == nil {
		return false, nil
	}
	resolved, err := task.Resolve(spec.Problem, spec.Variant)
	if err != nil || !wireEquivalent(spec, resolved) {
		return false, nil // not wire-transportable: not this member's problem
	}
	err = r.cold("Member.CanSolve", func(w *live.FrameClient) (err error) {
		ok, err = w.CanSolve(spec.Problem, spec.Variant)
		return err
	})
	return ok, err
}

func (r *Remote) Evaluate(req agent.Request) (agent.Candidate, error) {
	args, err := wireTask(req)
	if err != nil {
		return agent.Candidate{}, err
	}
	w, err := r.wireClient()
	if err != nil {
		return agent.Candidate{}, err
	}
	reply, err := w.Evaluate(&args)
	if err != nil {
		return agent.Candidate{}, r.wireErr(w, "Member.Evaluate", err)
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

// StartCommit is the commitStarter capability. It returns as soon as
// the Commit frame is written: the connection is FIFO and the member
// serves it sequentially, so the commit is ordered before every later
// call of this handle, and wait only collects the answer.
func (r *Remote) StartCommit(req agent.Request, server string) (wait func() (agent.Decision, error)) {
	args, err := wireTask(req)
	var w *live.FrameClient
	if err == nil {
		w, err = r.wireClient()
	}
	if err != nil {
		return func() (agent.Decision, error) { return agent.Decision{}, err }
	}
	args.Term = r.term()
	await := w.StartCommit(&live.MemberCommitArgs{Task: args, Server: server})
	job := req.JobID
	return func() (agent.Decision, error) {
		reply, err := await()
		if err != nil {
			return agent.Decision{}, r.wireErr(w, "Member.Commit", err)
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
	w, err := r.wireClient()
	if err != nil {
		return agent.Decision{}, err
	}
	reply, err := w.Submit(&args)
	if err != nil {
		return agent.Decision{}, r.wireErr(w, "Member.Submit", err)
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
	out := make([]agent.Decision, len(reqs))
	args := live.MemberBatchArgs{Tasks: make([]live.MemberTaskArgs, len(reqs))}
	stamp := r.term()
	for i, req := range reqs {
		t, err := wireTask(req)
		if err != nil {
			return out, err
		}
		t.Term = stamp
		args.Tasks[i] = t
	}
	w, err := r.wireClient()
	if err != nil {
		return out, err
	}
	reply, err := w.SubmitBatch(&args)
	if err != nil {
		return out, r.wireErr(w, "Member.SubmitBatch", err)
	}
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
	w, err := r.wireClient()
	if err != nil {
		return err
	}
	if err := w.Complete(&live.TaskDoneArgs{TaskKey: jobID, Server: server, At: at}); err != nil {
		return r.wireErr(w, "Member.Complete", err)
	}
	return nil
}

func (r *Remote) Report(server string, load, at float64) error {
	return r.cold("Member.Report", func(w *live.FrameClient) error { return w.Report(server, load, at) })
}

func (r *Remote) Summary() (Summary, error) {
	w, err := r.wireClient()
	if err != nil {
		return Summary{}, err
	}
	reply, err := w.Summary()
	if err != nil {
		return Summary{}, r.wireErr(w, "Member.Summary", err)
	}
	return Summary(reply), nil // the wire struct is the summary, field for field
}

// RelaySince pulls the member's relay events after the given ledger
// sequence. ok is false — with a nil error — when the member answers
// Disabled (relay off member-side); that is cached, so such a member is
// asked exactly once. Transport failures surface as errors and count
// toward eviction like any other member call.
func (r *Remote) RelaySince(after uint64) (relay.Delta, bool, error) {
	r.mu.Lock()
	unsupported := r.relayUnsupported
	r.mu.Unlock()
	if unsupported {
		return relay.Delta{}, false, nil
	}
	w, err := r.wireClient()
	if err != nil {
		return relay.Delta{}, false, err
	}
	reply, err := w.Relay(&live.MemberRelayArgs{Since: after})
	if err != nil {
		return relay.Delta{}, false, r.wireErr(w, "Member.Relay", err)
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

// Fence stamps the member with the new leader's term (the fencer
// capability).
func (r *Remote) Fence(term uint64) error {
	return r.cold("Member.Fence", func(w *live.FrameClient) error { return w.Fence(term) })
}

// Partition asks the member for its current server set (the
// partitionSource capability; a Remote always has it).
func (r *Remote) Partition() (servers []string, ok bool, err error) {
	err = r.cold("Member.Partition", func(w *live.FrameClient) (err error) {
		servers, err = w.Partition()
		return err
	})
	return servers, err == nil, err
}

func (r *Remote) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wire != nil {
		r.wire.Close()
		r.wire = nil
	}
	return nil
}
