package fed

import (
	"casched/internal/agent"
	"casched/internal/relay"
	"casched/internal/task"
)

// Summary is the compact load summary a member periodically publishes
// to the dispatcher — the whole of what federation gossips about a
// partition. InFlight and Servers feed the cheap balance signal
// (in-flight per server, the classic hierarchical-agent ranking);
// MinReady is the HTM-backed drain signal: the earliest projected
// instant at which one of the member's servers drains its live work
// (min ProjectedReady over the partition, an absolute experiment date
// comparable across members against a common arrival anchor).
// HasMinReady is false for monitor-only heuristics, where routing
// falls back to the in-flight signal.
type Summary struct {
	// InFlight is the member's count of placed-but-uncompleted jobs.
	InFlight int
	// Servers is the member's registered-server count.
	Servers int
	// MinReady is min over the partition of the per-server projected
	// drain instant (valid only when HasMinReady).
	MinReady    float64
	HasMinReady bool
	// TenantInFlight splits InFlight per tenant (raw tenant strings,
	// "" for untenanted work) — the dispatcher's fair stale-mode
	// routing signal: with multi-tenant traffic, power-of-two-choices
	// ranks members on the submitting tenant's own backlog, so one
	// tenant's burst cannot steer every tenant's routing. Nil when the
	// member has no tenanted work or predates the field.
	TenantInFlight map[string]int
	// ServerReady maps each of the member's servers to its projected
	// drain instant — the per-server breakdown of MinReady that relay-
	// based routing prices candidate placements against. Published only
	// by relay-enabled members; nil otherwise (including all members
	// that predate the relay).
	ServerReady map[string]float64
	// RelaySeq is the member's relay-ledger sequence number at the
	// instant this summary was captured: relayed events with Seq <=
	// RelaySeq are already included in the counts above. Valid only
	// when HasRelay; members that predate the relay (or run with it
	// off) leave HasRelay false and the dispatcher falls back to
	// summary-only stale routing.
	RelaySeq uint64
	HasRelay bool
}

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
	// SubmitBatch pipelines a burst through the member's shard-local
	// batch prediction cache.
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

// eventSource is the optional capability of members whose event stream
// the dispatcher can merge (the in-process transport; remote members
// do not stream events over the wire).
type eventSource interface {
	Subscribe(fn func(agent.Event)) (cancel func())
}

// finalPredictor is the optional capability behind
// Dispatcher.FinalPredictions (in-process members).
type finalPredictor interface {
	FinalPredictions() map[int]float64
}

// relaySource is the optional capability of members that stream their
// decision/completion events: RelaySince returns the events after the
// given ledger sequence. ok is false when the member does not speak
// relay (relay off, or an old member on the wire) — the dispatcher
// then routes from gossiped summaries alone, exactly as before the
// relay existed. err is a transport failure, counted like any other.
type relaySource interface {
	RelaySince(after uint64) (relay.Delta, bool, error)
}

// commitStarter is the optional capability of members whose transport
// serves one handle's calls in the order they were issued. StartCommit
// issues Member.Commit and returns once the commit is ordered before
// any later call to this member — not once it is answered; wait
// collects the answer (exactly what Commit would have returned) and is
// called exactly once. The dispatcher's fan-out releases the dispatch
// lock between the two (package doc, "Ordering"). A member without the
// capability — InProcess, whose commit is a function call; a wrapper
// that embeds Member; a Remote negotiated down to gob, which implements
// it by committing before it returns — has its Commit run inside the
// start step instead, under the lock: see startCommit.
type commitStarter interface {
	StartCommit(req agent.Request, server string) (wait func() (agent.Decision, error))
}

// startCommit starts a commit on m through its commitStarter
// capability or, without one, runs the whole Commit now and hands its
// stored result to wait: one dispatcher code path either way, only the
// moment of blocking differs.
func startCommit(m Member, req agent.Request, server string) (wait func() (agent.Decision, error)) {
	if cs, ok := m.(commitStarter); ok {
		return cs.StartCommit(req, server)
	}
	dec, err := m.Commit(req, server)
	return func() (agent.Decision, error) { return dec, err }
}

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

func (m *InProcess) Summary() (Summary, error) {
	ls := m.core.LoadSummary()
	s := Summary{
		InFlight:    ls.InFlight,
		Servers:     ls.Servers,
		MinReady:    ls.MinReady,
		HasMinReady: ls.HasMinReady,
		ServerReady: ls.ServerReady,
		RelaySeq:    ls.RelaySeq,
		HasRelay:    ls.HasRelay,
	}
	if len(ls.TenantInFlight) > 0 {
		s.TenantInFlight = ls.TenantInFlight
	}
	return s, nil
}

// RelaySince serves the dispatcher's relay pull straight from the
// wrapped core's ledger. ok is false when the core runs with the relay
// off.
func (m *InProcess) RelaySince(after uint64) (relay.Delta, bool, error) {
	d, ok := m.core.RelaySince(after)
	return d, ok, nil
}

// Partition enumerates the wrapped core's current server set — the
// promotion bootstrap (partitionSource capability).
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
