package cluster

import (
	"casched/internal/agent"
	"casched/internal/relay"
	"casched/internal/task"
)

// Summary is the compact load summary a member periodically publishes
// to the dispatcher — the whole of what federation gossips about a
// partition: the core's own consistent snapshot (agent.LoadSummary,
// where the fields are documented), carried as is by the in-process
// member and field for field over the wire.
type Summary = agent.LoadSummary

// Member is the dispatcher's handle on one federated agent: the
// transport seam. The in-process implementation wraps an agent.Core
// directly (tests, benches, single-process federations); the TCP
// implementation (Remote) drives a remote casagent over the live wire
// protocol. Every method may fail — a transport error, distinct from
// agent.ErrUnschedulable, counts toward the member's consecutive
// failures and eventually evicts it.
type Member interface {
	// Name identifies the member in routing state and diagnostics.
	Name() string
	// AddServer / RemoveServer manage the member's server partition.
	AddServer(server string) error
	RemoveServer(server string) error
	// CanSolve reports whether at least one of the member's servers
	// solves the task — the dispatcher's eligibility probe.
	CanSolve(spec *task.Spec) (bool, error)
	// Evaluate runs the member's heuristic without committing
	// (agent.Core.Evaluate): the fan-out half of a fresh-mode decision.
	Evaluate(req agent.Request) (agent.Candidate, error)
	// Commit commits a previously evaluated placement
	// (agent.Core.Commit): the second half of a fresh-mode decision.
	Commit(req agent.Request, server string) (agent.Decision, error)
	// Submit delegates one whole decision to the member — the
	// degraded-mode and unscored-rotation path.
	Submit(req agent.Request) (agent.Decision, error)
	// SubmitBatch pipelines a burst through the member's core under one
	// lock acquisition (agent.Core.SubmitBatch).
	SubmitBatch(reqs []agent.Request) ([]agent.Decision, error)
	// Complete and Report feed execution feedback to the member that
	// placed the job / owns the server.
	Complete(jobID int, server string, at float64) error
	Report(server string, load, at float64) error
	// Summary returns the member's current load summary. It doubles as
	// the liveness probe: a reachable member answers it.
	Summary() (Summary, error)
	// Close releases transport resources.
	Close() error
}

// EventSource is the optional capability of members whose event stream
// the dispatcher can merge (the in-process transport; remote members
// do not stream events over the wire).
type EventSource interface {
	Subscribe(fn func(agent.Event)) (cancel func())
}

// FinalPredictor is the optional capability behind
// Dispatcher.FinalPredictions (in-process members).
type FinalPredictor interface {
	FinalPredictions() map[int]float64
}

// RelaySource is the optional capability of members that stream their
// decision/completion events: RelaySince returns the events after the
// given ledger sequence. ok is false when the member does not speak
// relay (relay off) — the dispatcher
// then routes from gossiped summaries alone, exactly as before the
// relay existed. err is a transport failure, counted like any other.
type RelaySource interface {
	RelaySince(after uint64) (relay.Delta, bool, error)
}

// CommitStarter is the optional capability of members whose transport
// serves one handle's calls in the order they were issued. StartCommit
// issues Member.Commit and returns once the commit is ordered before
// any later call to this member — not once it is answered; wait
// collects the answer (exactly what Commit would have returned) and is
// called exactly once. The dispatcher's fan-out releases the dispatch
// lock between the two (package doc, "Ordering"). A member without the
// capability — InProcess, whose commit is a function call; a wrapper
// that embeds Member — has its Commit run inside the start step
// instead, under the lock: see StartCommit.
type CommitStarter interface {
	StartCommit(req agent.Request, server string) (wait func() (agent.Decision, error))
}

// StartCommit starts a commit on m through its CommitStarter
// capability or, without one, runs the whole Commit now and hands its
// stored result to wait — how a wrapper that adds the capability to any
// member forwards it (the dispatcher itself skips the stored result:
// commitLocked).
func StartCommit(m Member, req agent.Request, server string) (wait func() (agent.Decision, error)) {
	if cs, ok := m.(CommitStarter); ok {
		return cs.StartCommit(req, server)
	}
	dec, err := m.Commit(req, server)
	return func() (agent.Decision, error) { return dec, err }
}

// liveSignals is the optional capability of always-fresh members: the
// member is a core in the dispatcher's address space, so it never
// fails, commits by function call, and its load signals are read in
// place instead of from a summary that ages. The dispatcher evaluates
// such members inline, never refreshes, probes or evicts them, and a
// dispatcher over nothing else reads no clock on the submission path.
// The sharded Cluster's members have it; InProcess deliberately does
// not — the federation study and the chaos scenarios make in-process
// members stale on purpose, behind the summary seam.
type liveSignals interface {
	// InFlight is the member's placed-but-uncompleted job count.
	InFlight() int
	// MinProjectedReady is the earliest projected drain instant over
	// the member's partition (ok false for monitor-only heuristics).
	MinProjectedReady() (float64, bool)
}

// belowEvaluator is the optional capability of members that can be
// asked to evaluate below a ceiling: agent.Core.EvaluateBelow, in the
// dispatcher's address space. The fan-out uses it only when every member
// is evaluated inline, in order (evaluateAllLocked); a wire carries no
// ceiling.
type belowEvaluator interface {
	EvaluateBelow(req agent.Request, ceiling float64) (agent.Candidate, error)
}

// shard is the always-fresh member: an InProcess whose signals the
// dispatcher reads live (liveSignals).
type shard struct{ *InProcess }

func (s shard) InFlight() int                      { return s.core.InFlight() }
func (s shard) MinProjectedReady() (float64, bool) { return s.core.MinProjectedReady() }

// InProcess is the in-process Member: a named agent.Core behind the
// transport seam. It never fails and its summaries are exact, so a
// dispatcher refreshing inline (SummaryInterval 0) reproduces the
// sharded Cluster's decisions — the parity the federated-vs-central
// test pins.
type InProcess struct {
	name string
	core *agent.Core
}

// NewInProcess wraps a core as a federation member.
func NewInProcess(name string, core *agent.Core) *InProcess {
	return &InProcess{name: name, core: core}
}

// Core exposes the wrapped core (end-of-run inspection).
func (m *InProcess) Core() *agent.Core { return m.core }

func (m *InProcess) Name() string { return m.name }

func (m *InProcess) AddServer(server string) error {
	m.core.AddServer(server)
	return nil
}

func (m *InProcess) RemoveServer(server string) error {
	m.core.RemoveServer(server)
	return nil
}

func (m *InProcess) CanSolve(spec *task.Spec) (bool, error) {
	return m.core.CanSolve(spec), nil
}

func (m *InProcess) Evaluate(req agent.Request) (agent.Candidate, error) {
	return m.core.Evaluate(req)
}

// EvaluateBelow is Evaluate below the score of the best candidate the
// fan-out already holds (agent.Core.EvaluateBelow): the dispatcher's
// belowEvaluator capability, which only the in-process member has.
func (m *InProcess) EvaluateBelow(req agent.Request, ceiling float64) (agent.Candidate, error) {
	return m.core.EvaluateBelow(req, ceiling)
}

func (m *InProcess) Commit(req agent.Request, server string) (agent.Decision, error) {
	return m.core.Commit(req, server)
}

func (m *InProcess) Submit(req agent.Request) (agent.Decision, error) {
	return m.core.Submit(req)
}

func (m *InProcess) SubmitBatch(reqs []agent.Request) ([]agent.Decision, error) {
	return m.core.SubmitBatch(reqs)
}

func (m *InProcess) Complete(jobID int, server string, at float64) error {
	m.core.Complete(jobID, server, at)
	return nil
}

func (m *InProcess) Report(server string, load, at float64) error {
	m.core.Report(server, load, at)
	return nil
}

func (m *InProcess) Summary() (Summary, error) { return m.core.LoadSummary(), nil }

// RelaySince serves the dispatcher's relay pull straight from the
// wrapped core's ledger. ok is false when the core runs with the relay
// off.
func (m *InProcess) RelaySince(after uint64) (relay.Delta, bool, error) {
	d, ok := m.core.RelaySince(after)
	return d, ok, nil
}

// Partition enumerates the wrapped core's current server set — the
// promotion bootstrap (PartitionSource capability).
func (m *InProcess) Partition() ([]string, bool, error) {
	return m.core.Servers(), true, nil
}

func (m *InProcess) Subscribe(fn func(agent.Event)) (cancel func()) {
	return m.core.Subscribe(fn)
}

func (m *InProcess) FinalPredictions() map[int]float64 {
	return m.core.FinalPredictions()
}

func (m *InProcess) Close() error { return nil }
