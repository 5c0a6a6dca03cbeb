// Package fed implements multi-agent federation: N cooperating agents
// (members), each owning a server partition, behind one Dispatcher
// that exchanges compact load summaries with them over a pluggable
// transport — the paper's single central agent generalized to the
// cooperating-agents extension its §7 sketches.
//
// The Dispatcher is cluster.Dispatcher — the one dispatch core, which
// the sharded cluster.Cluster drives over always-fresh in-process
// shards — here with the members behind a summary seam or a wire. Each
// member periodically publishes a Summary (in-flight count, server
// count, min projected drain instant from the HTM baseline memos);
// routing picks its mode per decision from the summaries' freshness:
//
//   - Fresh mode (every live member's summary younger than
//     StaleAfter): Submit fans the request out — every member
//     evaluates against its own partition (agent.Core.Evaluate, no
//     commit), the dispatcher compares the scored winners and commits
//     on exactly one member. With the in-process transport this is
//     decision-for-decision the sharded cluster.Cluster, which the
//     federated-vs-centralized parity test pins.
//
//   - Degraded mode (some member slow or partitioned): the dispatcher
//     stops waiting on the whole pool and routes each decision whole
//     to one member chosen by power-of-two-choices over the
//     last-known summaries — stale data routes approximately rather
//     than blocking exactly. The internal/experiments federation
//     study quantifies the sum-flow cost of this trade on the
//     paper's bursty workload.
//
// SubmitBatch always routes hierarchically (the cluster's
// power-of-two-choices over summary-backed backlog scores), fresh
// summaries simply being exact.
//
// Members that keep failing (transport errors, timeouts) are evicted after
// MaxFailures consecutive failures: their partition leaves the
// candidate pool and only a periodic readmission probe (a Summary
// fetch every ProbeInterval) still reaches them; the first successful
// probe readmits the member with a fresh summary. Jobs placed on a
// member stay accounted to it until their completion message arrives
// or the completion routing gives up.
//
// # Ordering
//
// The Dispatcher is safe for concurrent use. The dispatch lock (d.mu)
// covers membership, routing state, summaries and the deciding part of
// every submission: intake, mode selection, the Evaluate fan-out, the
// choice of the winner and the start of its commit. It does not cover
// the wait for the commit's answer.
//
// Every Remote is FIFO: it drives all of its member's calls over one
// framed connection, which the member serves sequentially in the order
// the frames were written (live.Agent.serveFramed), so "written before"
// is "served before" for any two calls of one handle — Evaluate,
// Commit, AddServer, RemoveServer, Fence and the rest alike. A
// fresh-mode decision's
// ordering point is therefore the moment its Commit is issued
// (StartCommit), not the moment it is answered: once decision A's
// Commit frame is written to member m, every call issued to m
// afterwards — decision B's Evaluate included — is served after A's
// commit. B's evaluations at the other members never depended on A. B
// therefore evaluates against exactly the state it would have seen had
// A been answered first, and the lock can be released while A's answer
// travels: B's fan-out overlaps A's commit round trip, reply
// bookkeeping and client reply. Concurrent submissions decide exactly
// like the same requests one at a time in ordering-point order
// (TestFanoutLinearizable); a single caller issues the same calls in
// the same order as when the lock was held throughout. The same order
// covers membership: an Evaluate written after a RemoveServer never
// names the removed server (TestCommitServedBeforeLaterEvaluate).
//
// The early release is a capability of the member transport, found by
// type assertion like the event and relay surfaces
// (cluster.CommitStarter). A member without it has its whole Commit run
// under the lock: InProcess, and wrappers that embed Member. The paths
// that delegate a whole decision keep the lock across their member
// calls — degraded routing, unscored rotation, SubmitBatch — and
// Complete, Report, AddServer, RemoveServer, summary and relay fetches
// run outside it. After the lock has been away, bookkeeping is applied
// to a member slot only while it still holds the handle that was called
// (a rejoin may swap it), and a fan-out whose commit was refused
// re-evaluates if another submission ran meanwhile
// (submitFanoutLocked).
//
// Who evaluates where is likewise read from the member. The fan-out
// gives every member of this package its own goroutine for the
// Evaluate — InProcess, Remote, Chaos and any wrapper: the call may
// block on I/O or on an injected fault, and the round trips overlap.
// Only the cluster's own shard members, which declare themselves always
// fresh, are evaluated inline in the caller's goroutine, never
// refreshed and never evicted; a dispatcher over nothing else reads no
// clock and pulls no summary on the submission path.
package fed

import (
	"fmt"
	"time"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/sched"
)

// The dispatch core lives in internal/cluster (live imports cluster and
// this package imports live, so it cannot sit here); the federation
// names it has always gone by are kept as aliases.
type (
	// Dispatcher is the federated dispatch layer (cluster.Dispatcher).
	Dispatcher = cluster.Dispatcher
	// Config parameterizes a Dispatcher (cluster.DispatcherConfig).
	Config = cluster.DispatcherConfig
	// Member is the dispatcher's handle on one federated agent.
	Member = cluster.Member
	// Summary is the load summary a member publishes.
	Summary = cluster.Summary
	// MemberInfo is a diagnostic snapshot of one member's routing state.
	MemberInfo = cluster.MemberInfo
	// RelayStats aggregates the dispatcher's relay accounting.
	RelayStats = cluster.RelayStats
	// InProcess is the in-process Member behind the summary seam.
	InProcess = cluster.InProcess

	commitStarter   = cluster.CommitStarter
	eventSource     = cluster.EventSource
	finalPredictor  = cluster.FinalPredictor
	relaySource     = cluster.RelaySource
	partitionSource = cluster.PartitionSource
	fencer          = cluster.Fencer
)

// The member error taxonomy (see cluster.ErrUnreachable).
var (
	ErrNoMembers   = cluster.ErrNoMembers
	ErrUnreachable = cluster.ErrUnreachable
	ErrUncertain   = cluster.ErrUncertain
)

// NewInProcess wraps a core as a federation member.
func NewInProcess(name string, core *agent.Core) *InProcess {
	return cluster.NewInProcess(name, core)
}

// startCommit is cluster.StartCommit, for member wrappers.
var startCommit = cluster.StartCommit

// Option configures a Dispatcher.
type Option func(*Config)

// WithMembers sets the number of in-process members New constructs.
func WithMembers(n int) Option { return func(c *Config) { c.Members = n } }

// WithPolicy sets the server-to-member assignment policy.
func WithPolicy(p cluster.ShardPolicy) Option { return func(c *Config) { c.Policy = p } }

// WithHeuristic selects the heuristic by registry name
// (case-insensitive), one instance per member.
func WithHeuristic(name string) Option { return func(c *Config) { c.Heuristic = name } }

// WithSeed seeds member decision randomness and routing sampling.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Seed = seed } }

// WithHTMSync enables HTM↔execution synchronization on every member.
func WithHTMSync(on bool) Option { return func(c *Config) { c.HTMSync = on } }

// WithBatchAssignment opts every member's SubmitBatch into k-task
// min-cost assignment waves.
func WithBatchAssignment(on bool) Option { return func(c *Config) { c.BatchAssignment = on } }

// WithRelay turns the live event relay on (see Config.Relay).
func WithRelay(on bool) Option { return func(c *Config) { c.Relay = on } }

// WithRelayInterval sets the inline relay pull period (0 = every
// submission).
func WithRelayInterval(d time.Duration) Option { return func(c *Config) { c.RelayInterval = d } }

// WithRelayMaxConsecutive bounds consecutive delegations to one member
// between relay view advances.
func WithRelayMaxConsecutive(n int) Option {
	return func(c *Config) { c.RelayMaxConsecutive = n }
}

// WithStaleAfter sets the summary freshness horizon.
func WithStaleAfter(d time.Duration) Option { return func(c *Config) { c.StaleAfter = d } }

// WithSummaryInterval sets the inline summary refresh period
// (0 = every submission).
func WithSummaryInterval(d time.Duration) Option { return func(c *Config) { c.SummaryInterval = d } }

// WithMaxFailures sets the consecutive-failure eviction threshold.
func WithMaxFailures(n int) Option { return func(c *Config) { c.MaxFailures = n } }

// WithNow injects the freshness time source (tests, staleness
// studies).
func WithNow(now func() time.Time) Option { return func(c *Config) { c.Now = now } }

// WithTenantShares turns on weighted fair-share arbitration on every
// in-process member core (see agent.Config.TenantShares).
func WithTenantShares(shares map[string]float64) Option {
	return func(c *Config) { c.TenantShares = shares }
}

// WithAdmission turns deadline-aware admission on every in-process
// member core (see agent.Config.Admission).
func WithAdmission(on bool) Option { return func(c *Config) { c.Admission = on } }

// WithIntakeLimit bounds the federation's raw intake with one
// dispatch-level token bucket (see Config.IntakeRate).
func WithIntakeLimit(rate, burst float64) Option {
	return func(c *Config) { c.IntakeRate, c.IntakeBurst = rate, burst }
}

// WithPlacedWindow bounds the dispatcher's job→member placement
// records to a trailing experiment-time window (see
// Config.PlacedWindow).
func WithPlacedWindow(seconds float64) Option {
	return func(c *Config) { c.PlacedWindow = seconds }
}

// WithReassignAfter re-partitions a dead member's servers among the
// survivors once its eviction has lasted the given duration (see
// Config.ReassignAfter).
func WithReassignAfter(d time.Duration) Option {
	return func(c *Config) { c.ReassignAfter = d }
}

// New constructs a Dispatcher over Config.Members fresh in-process
// member cores, each running its own instance of the configured
// heuristic over its server partition — the federated twin of
// cluster.New.
func New(opts ...Option) (*Dispatcher, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	cfg.Defaults()
	if cfg.Members < 1 {
		return nil, fmt.Errorf("fed: needs at least 1 member, got %d", cfg.Members)
	}
	members := make([]Member, cfg.Members)
	for i := range members {
		s, err := sched.ByName(cfg.Heuristic)
		if err != nil {
			return nil, fmt.Errorf("fed: %w", err)
		}
		core, err := agent.New(agent.Config{
			Scheduler:       s,
			Seed:            cfg.Seed,
			HTMSync:         cfg.HTMSync,
			BatchAssignment: cfg.BatchAssignment,
			TenantShares:    cfg.TenantShares,
			Admission:       cfg.Admission,
			Relay:           cfg.Relay,
		})
		if err != nil {
			return nil, fmt.Errorf("fed: member %d: %w", i, err)
		}
		members[i] = NewInProcess(fmt.Sprintf("member-%d", i), core)
	}
	return NewWithMembers(cfg, members)
}

// NewWithMembers constructs a Dispatcher over caller-supplied member
// handles (remote transports, test fakes). The configured heuristic
// name must match what the members run; members may also join later
// through AddMember.
func NewWithMembers(cfg Config, members []Member) (*Dispatcher, error) {
	return cluster.NewDispatcher(cfg, members)
}
