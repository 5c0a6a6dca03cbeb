package fed

import (
	"fmt"
	"sync"
	"time"

	"casched/internal/agent"
	"casched/internal/relay"
	"casched/internal/task"
)

// Op names one Member operation at the transport seam, the granularity
// at which fault injection applies: a chaos script can sever the
// summary channel alone (a partitioned gossip path with an intact data
// path), the decision path alone, or the whole member.
type Op string

const (
	OpAddServer    Op = "add-server"
	OpRemoveServer Op = "remove-server"
	OpCanSolve     Op = "can-solve"
	OpEvaluate     Op = "evaluate"
	OpCommit       Op = "commit"
	OpSubmit       Op = "submit"
	OpSubmitBatch  Op = "submit-batch"
	OpComplete     Op = "complete"
	OpReport       Op = "report"
	OpSummary      Op = "summary"
	OpRelay        Op = "relay"
)

// DecisionOps are the operations on the placement path — what a member
// outage takes down first.
var DecisionOps = []Op{OpCanSolve, OpEvaluate, OpCommit, OpSubmit, OpSubmitBatch}

// An Injector decides the fate of one member call before it reaches
// the transport. Returning nil lets the call through; returning an
// error fails it without delivering anything to the member — the
// injected error should wrap ErrUnreachable so the dispatcher's
// delivery-aware failure handling classifies it as a refused dial
// (provably nothing placed, safe to reroute and counted toward
// eviction). Intercept runs on the dispatcher's calling goroutine, so
// an implementation may also sleep to model latency.
type Injector interface {
	Intercept(member string, op Op) error
}

// Chaos wraps a member with an injector consulted before every
// operation. The wrapper forwards all optional capabilities (event/
// relay/partition/fence/prediction/commit-start surfaces) so a wrapped
// in-process member is indistinguishable from a bare one while the
// injector stays quiet: production code paths are untouched, the
// chaos dimension lives entirely in this decorator.
func Chaos(m Member, inj Injector) Member {
	return &chaosMember{m: m, inj: inj}
}

type chaosMember struct {
	m   Member
	inj Injector
}

func (c *chaosMember) Name() string { return c.m.Name() }

func (c *chaosMember) AddServer(server string) error {
	if err := c.inj.Intercept(c.m.Name(), OpAddServer); err != nil {
		return err
	}
	return c.m.AddServer(server)
}

func (c *chaosMember) RemoveServer(server string) error {
	if err := c.inj.Intercept(c.m.Name(), OpRemoveServer); err != nil {
		return err
	}
	return c.m.RemoveServer(server)
}

func (c *chaosMember) CanSolve(spec *task.Spec) (bool, error) {
	if err := c.inj.Intercept(c.m.Name(), OpCanSolve); err != nil {
		return false, err
	}
	return c.m.CanSolve(spec)
}

func (c *chaosMember) Evaluate(req agent.Request) (agent.Candidate, error) {
	if err := c.inj.Intercept(c.m.Name(), OpEvaluate); err != nil {
		return agent.Candidate{}, err
	}
	return c.m.Evaluate(req)
}

func (c *chaosMember) Commit(req agent.Request, server string) (agent.Decision, error) {
	if err := c.inj.Intercept(c.m.Name(), OpCommit); err != nil {
		return agent.Decision{}, err
	}
	return c.m.Commit(req, server)
}

// StartCommit forwards the commitStarter capability, consulting the
// injector at the start step — where a dial would be refused — so an
// injected OpCommit fault fails the commit before anything is issued.
// Over a member without the capability it commits synchronously, as
// the dispatcher itself would.
func (c *chaosMember) StartCommit(req agent.Request, server string) (wait func() (agent.Decision, error)) {
	if err := c.inj.Intercept(c.m.Name(), OpCommit); err != nil {
		return func() (agent.Decision, error) { return agent.Decision{}, err }
	}
	return startCommit(c.m, req, server)
}

func (c *chaosMember) Submit(req agent.Request) (agent.Decision, error) {
	if err := c.inj.Intercept(c.m.Name(), OpSubmit); err != nil {
		return agent.Decision{}, err
	}
	return c.m.Submit(req)
}

func (c *chaosMember) SubmitBatch(reqs []agent.Request) ([]agent.Decision, error) {
	if err := c.inj.Intercept(c.m.Name(), OpSubmitBatch); err != nil {
		return nil, err
	}
	return c.m.SubmitBatch(reqs)
}

func (c *chaosMember) Complete(jobID int, server string, at float64) error {
	if err := c.inj.Intercept(c.m.Name(), OpComplete); err != nil {
		return err
	}
	return c.m.Complete(jobID, server, at)
}

func (c *chaosMember) Report(server string, load, at float64) error {
	if err := c.inj.Intercept(c.m.Name(), OpReport); err != nil {
		return err
	}
	return c.m.Report(server, load, at)
}

func (c *chaosMember) Summary() (Summary, error) {
	if err := c.inj.Intercept(c.m.Name(), OpSummary); err != nil {
		return Summary{}, err
	}
	return c.m.Summary()
}

func (c *chaosMember) Close() error { return c.m.Close() }

// RelaySince forwards the relay capability. An injected error is
// reported with ok=true so the dispatcher classifies it as a transport
// failure (counted toward eviction) rather than "does not speak relay"
// (which would silently disable the relay for the member).
func (c *chaosMember) RelaySince(after uint64) (relay.Delta, bool, error) {
	rs, ok := c.m.(relaySource)
	if !ok {
		return relay.Delta{}, false, nil
	}
	if err := c.inj.Intercept(c.m.Name(), OpRelay); err != nil {
		return relay.Delta{}, true, err
	}
	return rs.RelaySince(after)
}

// Subscribe forwards the event-stream capability; members without it
// get a no-op cancel (nothing to stream, nothing to cancel).
func (c *chaosMember) Subscribe(fn func(agent.Event)) (cancel func()) {
	if es, ok := c.m.(eventSource); ok {
		return es.Subscribe(fn)
	}
	return func() {}
}

// FinalPredictions forwards the prediction surface (nil without it).
func (c *chaosMember) FinalPredictions() map[int]float64 {
	if fp, ok := c.m.(finalPredictor); ok {
		return fp.FinalPredictions()
	}
	return nil
}

// Partition forwards the promotion-bootstrap capability.
func (c *chaosMember) Partition() ([]string, bool, error) {
	if ps, ok := c.m.(partitionSource); ok {
		return ps.Partition()
	}
	return nil, false, nil
}

// Fence forwards the fencing capability (best-effort, like the
// underlying RPC: members without it simply cannot be fenced).
func (c *chaosMember) Fence(term uint64) error {
	if fc, ok := c.m.(fencer); ok {
		return fc.Fence(term)
	}
	return nil
}

// Unwrap exposes the wrapped member (end-of-run inspection in tests
// and scenario studies).
func (c *chaosMember) Unwrap() Member { return c.m }

// ScriptInjector is a scriptable Injector for chaos scenarios: members
// can be killed whole (every op refused), have individual channels
// severed (e.g. OpSummary alone — a partitioned gossip path), or have
// per-call latency injected. All switches are safe for concurrent use
// and take effect on the next intercepted call.
type ScriptInjector struct {
	mu      sync.Mutex
	down    map[string]bool
	severed map[string]map[Op]bool
	latency map[string]time.Duration
	budget  time.Duration
	sleep   func(time.Duration)
	dropped map[string]int
}

// NewScriptInjector returns an idle injector. budget is the modeled
// per-call RPC latency budget: injected latency at or beyond it fails
// the call like a dial timeout instead of sleeping (so deterministic
// fake-clock scenarios can model a slow member without real waiting);
// latency below it is actually slept. A zero budget means any injected
// latency sleeps.
func NewScriptInjector(budget time.Duration) *ScriptInjector {
	return &ScriptInjector{
		down:    make(map[string]bool),
		severed: make(map[string]map[Op]bool),
		latency: make(map[string]time.Duration),
		budget:  budget,
		sleep:   time.Sleep,
		dropped: make(map[string]int),
	}
}

// Kill refuses every subsequent op of the member, like a process that
// stopped listening.
func (s *ScriptInjector) Kill(member string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down[member] = true
}

// Revive undoes Kill — the member process is back.
func (s *ScriptInjector) Revive(member string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.down, member)
}

// Sever refuses the given ops of the member while everything else
// still flows — a partial partition (sever OpSummary and the gossip
// path is dark while decisions still land).
func (s *ScriptInjector) Sever(member string, ops ...Op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.severed[member]
	if m == nil {
		m = make(map[Op]bool)
		s.severed[member] = m
	}
	for _, op := range ops {
		m[op] = true
	}
}

// Heal clears every severed channel of the member.
func (s *ScriptInjector) Heal(member string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.severed, member)
}

// SetLatency injects per-call latency on every op of the member. At or
// beyond the injector's budget the call fails like a dial timeout;
// below it the call is delayed for real. Zero clears.
func (s *ScriptInjector) SetLatency(member string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d <= 0 {
		delete(s.latency, member)
		return
	}
	s.latency[member] = d
}

// Dropped returns how many calls were refused for the member so far.
func (s *ScriptInjector) Dropped(member string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped[member]
}

// Intercept implements Injector.
func (s *ScriptInjector) Intercept(member string, op Op) error {
	s.mu.Lock()
	if s.down[member] {
		s.dropped[member]++
		s.mu.Unlock()
		return fmt.Errorf("chaos: member %s down (%s): %w", member, op, ErrUnreachable)
	}
	if s.severed[member][op] {
		s.dropped[member]++
		s.mu.Unlock()
		return fmt.Errorf("chaos: member %s channel %s severed: %w", member, op, ErrUnreachable)
	}
	lat := s.latency[member]
	budget, sleep := s.budget, s.sleep
	if lat > 0 && budget > 0 && lat >= budget {
		s.dropped[member]++
		s.mu.Unlock()
		return fmt.Errorf("chaos: member %s latency %v exceeds RPC budget %v (%s): %w",
			member, lat, budget, op, ErrUnreachable)
	}
	s.mu.Unlock()
	if lat > 0 {
		sleep(lat)
	}
	return nil
}
