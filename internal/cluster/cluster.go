// Package cluster implements the dispatch layer over the agent core:
// one Dispatcher routing work over members that each own a partition
// of the server pool, and the sharded Cluster — N in-process
// agent.Core shards behind a Dispatcher, with the same driving surface
// as a single core: membership, Submit/SubmitBatch, Complete/Report
// feedback, and one merged event stream. The federation (internal/fed)
// drives the same Dispatcher over members behind a summary seam or a
// wire; rotation, fan-out, batch routing, the intake gate, placement
// records, shed synthesis and event merging exist once, in
// dispatcher.go.
//
// The paper's single central agent is the scalability ceiling of the
// client-agent-server model: every decision consults every server's
// trace under one lock. Sharding partitions the pool (a pluggable
// ShardPolicy: hash, least-loaded, name-class affinity), so a shard's
// HTM and its memo, heuristic state and lock cover its partition only. The dispatch layer routes work two ways:
//
//   - Submit fans the request out: every shard evaluates it against
//     its own partition (agent.Core.Evaluate — no commit), the
//     dispatcher compares the scored winners (sched.ScoredScheduler)
//     and commits on exactly one shard. For partition-decomposable
//     objectives (HMCT's completion date, MCT's estimate, MSF's
//     sum-flow...) this reproduces the centralized decision up to
//     cross-shard ties, at full fan-out evaluation cost. The shards
//     are evaluated one after the other in the caller's goroutine:
//     since candidate pruning a shard's evaluation is a few
//     microseconds, less than handing it to another goroutine costs.
//     Persistent per-shard workers measured 30.7–34.6k decisions/s on
//     the 4-shard 128-server busy workload where the plain loop does
//     53.1–58.2k (2 cores; 18.4–20.2 µs against 9.0–9.2 µs per steady
//     decision), so the workers are gone. A single Submit is therefore
//     never faster on N shards than on one; sharding pays on bursts.
//
//   - SubmitBatch routes a burst hierarchically by
//     power-of-two-choices over HTM-backed shard scores: the
//     in-flight leader and one uniformly sampled shard are compared
//     on their projected backlog at the burst's arrival (min
//     ProjectedReady over the partition, read from cached drain
//     memos) and the burst goes to the winner, which pipelines it
//     through its shard's pruned pass, the later members reading the
//     HTM's memo.
//     Decision cost per burst is one candidate pass over one shard
//     rather than the whole pool — the throughput path, trading the
//     centralized greedy order across bursts for shard-local
//     optimality (the classic hierarchical-agent design; see
//     BenchmarkClusterSubmitBatch for the scaling curves). With
//     WithBatchAssignment the routed shard additionally places the
//     burst as true k-task min-cost waves instead of greedily.
//
// Ceiling. Since the shards are evaluated in order, each shard after
// the first that produced a candidate is evaluated below the Score of
// the best candidate so far — the one BetterCandidate's chain over the
// earlier answers holds — by agent.Core.EvaluateBelow: its pruned pass
// starts with an incumbent of ceiling + tie instead of +Inf
// (htm.Minimizer.Below), so idle classes and busy traces that cannot
// come within ceiling + 2·tie are never projected, and a shard whose
// least objective m exceeds ceiling + tie answers agent.ErrBeaten, which
// the dispatcher drops as it drops ErrUnschedulable. The winner is the
// one a fan-out without ceilings picks:
//
//   - A shard with m ≤ ceiling + tie still projects every candidate
//     within tie of m: its incumbent never falls below m, so each such
//     candidate's bound, at most its objective, is within tie of it.
//     Its answer is exact.
//   - A shard with m > ceiling + tie has no candidate that passes the
//     chain's best (BetterCandidate needs a Score within tie of it, or
//     below), and a candidate that cannot replace the best leaves the
//     rest of the chain as it was. So it can be left out.
//   - One tie of reach would not do: BetterCandidate is not transitive
//     within tie, and a shard's own answer is the tie-break among the
//     candidates within tie of m, so a winner may sit up to 2·tie above
//     the ceiling it was asked below.
//
// A commit refused after a shard was beaten re-runs the fan-out over the
// shards that have not refused, as an epoch change does: the beaten
// shard's own best was never asked for. Heuristics without an objective
// (MP, MNI, the baselines, SubmitBatch's cache) ignore the ceiling. So
// do federation members: a fan-out with any member behind a seam or a
// wire runs concurrently and carries no ceiling, and agent.Request and
// the member wire are unchanged.
//
// With one shard both paths degenerate exactly to the single core:
// the parity test pins that a 1-shard Cluster reproduces
// agent.Core's placement sequence decision for decision.
//
// Membership is live: AddServer routes through the policy,
// RemoveServer withdraws, and Rebalance migrates servers between
// shards to level partition sizes (a migrated server starts a fresh
// trace and belief on its new shard, like a server that re-registered;
// in-flight jobs keep completing through their placing shard).
// Policies that report AutoBalance rebalance automatically after
// removals.
//
// The Cluster is safe for concurrent use. Cluster-level submissions
// serialize on the dispatch lock, held from intake to commit;
// completions and reports only take the owning shard's lock, so
// feedback flows concurrently with evaluation on other shards.
package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"casched/internal/agent"
	"casched/internal/htm"
	"casched/internal/sched"
)

// tieEps mirrors sched's tie tolerance for cross-shard comparisons.
const tieEps = 1e-9

// Config parameterizes every in-process shape built over agent cores:
// a Cluster (New, NewFromConfig), a federation of in-process members
// (NewFederation) and, through CoreConfig, a single core. Most callers
// use the options.
type Config struct {
	// Shards is the number of agent cores (default 1): a Cluster's
	// shards or a federation's members.
	Shards int
	// Core is the per-core template: seed, HTM options, log, tenancy.
	// Its Scheduler field is used as the shared heuristic instance for
	// a single core; several cores need per-core instances (see
	// NewScheduler).
	Core agent.Config
	// NewScheduler constructs one heuristic instance per core
	// (stateful heuristics must not be shared across core locks).
	// Nil derives a factory from Core.Scheduler's registry name.
	NewScheduler func() (sched.Scheduler, error)
	// Dispatch configures the dispatch layer in front of the cores.
	// Its Seed (and a federation's Relay) are taken from Core.
	Dispatch DispatcherConfig
}

// Option configures a Cluster, a federation (NewFederation) or,
// through CoreConfig, a single agent core — the one construction idiom
// of the public facade. Each constructor rejects the settings it
// cannot use.
type Option func(*Config)

// WithShards sets the number of agent cores: a Cluster's shards or a
// federation's members.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithPolicy sets the server-to-shard (or member) assignment policy.
func WithPolicy(p ShardPolicy) Option { return func(c *Config) { c.Dispatch.Policy = p } }

// WithHeuristic selects the scheduling heuristic by registry name
// (case-insensitive: MCT, HMCT, MP, MSF, ...), constructing one
// instance per core.
func WithHeuristic(name string) Option {
	return func(c *Config) {
		c.NewScheduler = func() (sched.Scheduler, error) { return sched.ByName(name) }
	}
}

// WithScheduler pins a heuristic instance (single-core, or as the
// name source for per-core reconstruction).
func WithScheduler(s sched.Scheduler) Option { return func(c *Config) { c.Core.Scheduler = s } }

// WithSchedulerFactory sets an explicit per-core heuristic factory,
// for heuristics outside the registry.
func WithSchedulerFactory(f func() (sched.Scheduler, error)) Option {
	return func(c *Config) { c.NewScheduler = f }
}

// WithSeed seeds each core's decision randomness and the dispatcher's
// routing sample.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Core.Seed = seed } }

// WithHTMRetention bounds each core's HTM trace history to the given
// number of experiment seconds (see agent.Config.HTMRetention); zero
// keeps the unbounded paper behavior.
func WithHTMRetention(seconds float64) Option {
	return func(c *Config) { c.Core.HTMRetention = seconds }
}

// WithHTMSync enables HTM↔execution synchronization on every core.
func WithHTMSync(on bool) Option { return func(c *Config) { c.Core.HTMSync = on } }

// WithBatchAssignment opts every core's SubmitBatch into true k-task
// scheduling: batches are placed wave by wave through a min-cost
// assignment over the shared prediction matrix instead of greedily
// task by task (agent.Config.BatchAssignment). Requires a heuristic
// with a comparable objective.
func WithBatchAssignment(on bool) Option { return func(c *Config) { c.Core.BatchAssignment = on } }

// WithTenantShares turns on weighted fair-share arbitration of
// multi-tenant batches (agent.Config.TenantShares): each core's
// intake arbiter offers tasks to the heuristic in fair-clock order
// across tenants. Keys are tenant paths ("gold", "gold/alice"),
// values share weights; a non-nil empty map enables arbitration with
// equal shares.
func WithTenantShares(shares map[string]float64) Option {
	return func(c *Config) { c.Core.TenantShares = shares }
}

// WithAdmission turns deadline-aware admission control on or off
// (agent.Config.Admission): requests whose deadline no candidate's
// predicted completion meets are shed with agent.ErrDeadlineUnmet.
func WithAdmission(on bool) Option { return func(c *Config) { c.Core.Admission = on } }

// WithRelay turns the federation event relay ledger on or off on each
// core (agent.Config.Relay): placements and completions are appended
// to a bounded sequence-numbered ledger a federation dispatcher can
// stream to keep near-fresh member views while degraded; a
// NewFederation's dispatcher pulls it (DispatcherConfig.Relay).
func WithRelay(on bool) Option { return func(c *Config) { c.Core.Relay = on } }

// WithIntakeLimit bounds raw intake with one dispatch-level token
// bucket of rate tasks per experiment second and burst capacity burst
// (burst <= 0 defaults to max(rate, 1)). Applied to NewAgentCore it
// becomes the core's own bucket; on a cluster or a federation it sits
// in front of the dispatch layer, so a deployment has exactly one
// limiter regardless of its number of cores.
func WithIntakeLimit(rate, burst float64) Option {
	return func(c *Config) { c.Dispatch.IntakeRate, c.Dispatch.IntakeBurst = rate, burst }
}

// WithPlacedWindow bounds the dispatcher's job→shard (or, on a
// federation, job→member) placement records to a trailing
// experiment-time window; see DispatcherConfig.PlacedWindow.
func WithPlacedWindow(seconds float64) Option {
	return func(c *Config) { c.Dispatch.PlacedWindow = seconds }
}

// The settings below only a federation reads (see DispatcherConfig);
// NewFromConfig and CoreConfig reject them.

// WithStaleAfter sets a federation's summary freshness horizon.
func WithStaleAfter(d time.Duration) Option { return func(c *Config) { c.Dispatch.StaleAfter = d } }

// WithSummaryInterval sets a federation's inline summary refresh period.
func WithSummaryInterval(d time.Duration) Option {
	return func(c *Config) { c.Dispatch.SummaryInterval = d }
}

// WithRelayInterval sets a federation's inline relay pull period.
func WithRelayInterval(d time.Duration) Option {
	return func(c *Config) { c.Dispatch.RelayInterval = d }
}

// WithNow injects a federation's freshness time source (tests,
// staleness studies).
func WithNow(now func() time.Time) Option { return func(c *Config) { c.Dispatch.Now = now } }

// federationOnly names the first setting only a federation reads, or
// returns "" when none is set.
func (d *DispatcherConfig) federationOnly() string {
	switch {
	case d.StaleAfter != 0:
		return "WithStaleAfter"
	case d.SummaryInterval != 0:
		return "WithSummaryInterval"
	case d.RelayInterval != 0:
		return "WithRelayInterval"
	case d.Now != nil:
		return "WithNow"
	case d.Heuristic != "" || d.Relay || d.RelayMaxConsecutive != 0 || d.MaxFailures != 0 ||
		d.ProbeInterval != 0 || d.ReassignAfter != 0:
		return "a federation-only DispatcherConfig field"
	}
	return ""
}

// schedulerFor resolves one core's heuristic instance.
func (cfg *Config) schedulerFor() (sched.Scheduler, error) {
	if cfg.NewScheduler != nil {
		return cfg.NewScheduler()
	}
	if cfg.Core.Scheduler == nil {
		return nil, errors.New("cluster: config needs a heuristic (WithHeuristic)")
	}
	if cfg.Shards <= 1 {
		return cfg.Core.Scheduler, nil
	}
	// Several cores: heuristics can carry per-instance state
	// (RoundRobin, SA) and each core runs under its own lock, so each
	// needs its own instance; the registry reconstructs by name — but
	// only when the caller's instance IS a registry default, otherwise
	// reconstruction would silently drop its configuration (KPB{K: 20},
	// MP{Tie: TieRandom}, ...).
	s, err := sched.ByName(cfg.Core.Scheduler.Name())
	if err != nil {
		return nil, fmt.Errorf("cluster: cannot build per-shard instances of %q: %w "+
			"(use WithSchedulerFactory)", cfg.Core.Scheduler.Name(), err)
	}
	if !reflect.DeepEqual(s, cfg.Core.Scheduler) {
		return nil, fmt.Errorf("cluster: scheduler %q carries non-default configuration; "+
			"per-shard instances need WithSchedulerFactory", cfg.Core.Scheduler.Name())
	}
	return s, nil
}

// cores builds the configured agent cores in index order — the nth
// NewScheduler call serves core n — and reports whether their
// heuristic has a comparable objective (fan-out) or not (rotation).
func (cfg *Config) cores() ([]*agent.Core, bool, error) {
	if cfg.Shards < 1 {
		return nil, false, fmt.Errorf("cluster: needs at least 1 shard, got %d", cfg.Shards)
	}
	cores := make([]*agent.Core, cfg.Shards)
	for i := range cores {
		s, err := cfg.schedulerFor()
		if err != nil {
			return nil, false, err
		}
		coreCfg := cfg.Core
		coreCfg.Scheduler = s
		if cores[i], err = agent.New(coreCfg); err != nil {
			return nil, false, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}
	_, scored := cores[0].Scheduler().(sched.ScoredScheduler)
	return cores, scored, nil
}

// CoreConfig applies cluster options to a single-core configuration —
// how the facade's NewAgentCore shares the option idiom. Options that
// need a dispatch layer (WithShards above 1, WithPolicy,
// WithPlacedWindow, the federation's) are rejected.
func CoreConfig(base agent.Config, opts ...Option) (agent.Config, error) {
	cfg := Config{Shards: 1, Core: base}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Shards != 1 {
		return agent.Config{}, fmt.Errorf("agent: a core is single-shard; use NewCluster(WithShards(%d))", cfg.Shards)
	}
	name := cfg.Dispatch.federationOnly()
	if cfg.Dispatch.Policy != nil {
		name = "WithShardPolicy"
	} else if cfg.Dispatch.PlacedWindow != 0 {
		name = "WithPlacedWindow"
	}
	if name != "" {
		return agent.Config{}, fmt.Errorf("agent: %s needs a dispatch layer (NewCluster, NewFederation), not NewAgentCore", name)
	}
	// The dispatch-level intake limit becomes the single core's own
	// bucket: one limiter per deployment either way.
	if cfg.Dispatch.IntakeRate > 0 {
		cfg.Core.IntakeRate, cfg.Core.IntakeBurst = cfg.Dispatch.IntakeRate, cfg.Dispatch.IntakeBurst
	}
	s, err := cfg.schedulerFor()
	if err != nil {
		return agent.Config{}, err
	}
	cfg.Core.Scheduler = s
	return cfg.Core, nil
}

// Cluster is the sharded agent: a Dispatcher over N in-process cores
// that are always fresh, never fail and commit by function call.
// Submit, SubmitBatch, Subscribe, Servers, Rebalance and
// FinalPredictions are the Dispatcher's; the methods below adapt the
// rest of the single-core surface (no error returns: an in-process
// member has none to report) and read the shards for inspection. The
// Dispatcher's federation-only methods (AddMember, Leave, the Adopt
// family...) are not meant for a Cluster. Construct with New.
type Cluster struct {
	*Dispatcher
	shards []*agent.Core
}

// New constructs a Cluster from functional options.
func New(opts ...Option) (*Cluster, error) {
	cfg := Config{Shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return NewFromConfig(cfg)
}

// NewFromConfig constructs a Cluster from an explicit Config. Shards
// are built in index order: the nth NewScheduler call serves shard n.
// Dispatch settings only a federation reads are rejected.
func NewFromConfig(cfg Config) (*Cluster, error) {
	if name := cfg.Dispatch.federationOnly(); name != "" {
		return nil, fmt.Errorf("cluster: %s applies to NewFederation, not a Cluster", name)
	}
	cores, scored, err := cfg.cores()
	if err != nil {
		return nil, err
	}
	members := make([]Member, len(cores))
	for i, core := range cores {
		members[i] = shard{NewInProcess(fmt.Sprintf("shard-%d", i), core)}
	}
	dc := cfg.Dispatch
	dc.Seed = cfg.Core.Seed
	return &Cluster{
		Dispatcher: newDispatcher(dc, scored, "cluster", members),
		shards:     cores,
	}, nil
}

// NewFederation constructs a federation dispatcher over Shards fresh
// in-process member cores (member-0, member-1, ...) behind the summary
// seam — the federated twin of New, from the same options plus the
// federation-only ones. With fresh summaries (the default) it places
// exactly like a Cluster of as many shards.
func NewFederation(opts ...Option) (*Dispatcher, error) {
	cfg := Config{Shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	cores, scored, err := cfg.cores()
	if err != nil {
		return nil, err
	}
	members := make([]Member, len(cores))
	for i, core := range cores {
		members[i] = NewInProcess(fmt.Sprintf("member-%d", i), core)
	}
	dc := cfg.Dispatch
	dc.Heuristic = cores[0].Scheduler().Name()
	dc.Seed, dc.Relay = cfg.Core.Seed, cfg.Core.Relay
	return newDispatcher(dc, scored, "fed", members), nil
}

// NumShards returns the number of agent-core shards.
func (cl *Cluster) NumShards() int { return len(cl.shards) }

// Shard exposes one shard's core for inspection (Gantt extraction,
// accuracy studies) — not for driving; use the Cluster surface.
func (cl *Cluster) Shard(i int) *agent.Core { return cl.shards[i] }

// ShardOf returns the shard a server is assigned to.
func (cl *Cluster) ShardOf(server string) (int, bool) { return cl.MemberOf(server) }

// EvalStats sums the shards' HTM evaluation counters
// (agent.Core.EvalStats).
func (cl *Cluster) EvalStats() htm.EvalStats {
	var total htm.EvalStats
	for _, sh := range cl.shards {
		st := sh.EvalStats()
		total.Candidates += st.Candidates
		total.Projections += st.Projections
		total.Replicated += st.Replicated
		total.Stepped += st.Stepped
		total.Bounded += st.Bounded
		total.NameLookups += st.NameLookups
		total.IndexBuilds += st.IndexBuilds
		total.Refreshes += st.Refreshes
		total.Beaten += st.Beaten
		total.Reused += st.Reused
	}
	return total
}

// UsesHTM reports whether the configured heuristic consumes the HTM.
func (cl *Cluster) UsesHTM() bool { return cl.shards[0].UsesHTM() }

// AddServer registers a server, routed to a shard by the policy.
// Idempotent by name.
func (cl *Cluster) AddServer(name string) { _ = cl.Dispatcher.AddServer(name) }

// RemoveServer withdraws a server from its shard (collapse,
// decommission). Policies that auto-balance trigger a rebalance when
// partition sizes drift apart.
func (cl *Cluster) RemoveServer(name string) {
	_ = cl.Dispatcher.RemoveServer(name)
	if ab, ok := cl.cfg.Policy.(AutoBalancer); ok && ab.AutoBalance() {
		cl.Rebalance()
	}
}

// Close cancels the shards' event subscriptions. The Cluster must not
// be used afterwards.
func (cl *Cluster) Close() { _ = cl.Dispatcher.Close() }

// LoadEstimate returns the owning shard's belief of the server's load.
func (cl *Cluster) LoadEstimate(server string) float64 {
	sh, ok := cl.MemberOf(server)
	if !ok {
		return 0
	}
	return cl.shards[sh].LoadEstimate(server)
}

// InFlight returns the number of placed-but-uncompleted jobs across
// all shards — the members' own live counts, exact where the
// Dispatcher's placement records are only a trailing window
// (DispatcherConfig.PlacedWindow).
func (cl *Cluster) InFlight() int {
	n := 0
	for _, core := range cl.shards {
		n += core.InFlight()
	}
	return n
}

// Complete feeds a completion message to the shard that placed the
// job (falling back to the server's current shard for jobs the
// dispatcher never saw) and returns the core's answer. A function call
// cannot be lost, so the placement record is consumed before it, not on
// acknowledgement as across a wire.
func (cl *Cluster) Complete(jobID int, server string, at float64) agent.Completion {
	cl.mu.Lock()
	sh, fromPlaced, _ := cl.ownerLocked(jobID, server)
	if fromPlaced {
		delete(cl.placed, jobID)
	}
	cl.mu.Unlock()
	return cl.shards[sh].Complete(jobID, server, at)
}

// Report feeds a monitor report to the server's shard; reports for
// unknown servers are dropped, as the core itself drops them.
func (cl *Cluster) Report(server string, load, at float64) {
	_ = cl.Dispatcher.Report(server, load, at)
}

// placedShard resolves the shard that placed a job, when the
// dispatcher routed it (and the record has not aged out).
func (cl *Cluster) placedShard(jobID int) (int, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	rec, ok := cl.placed[jobID]
	return rec.member, ok
}

// TenantInFlight merges every shard's per-tenant in-flight counts —
// the fair-share signal a federation dispatcher reads from member
// summaries.
func (cl *Cluster) TenantInFlight() map[string]int {
	out := make(map[string]int)
	for _, core := range cl.shards {
		for tenant, n := range core.TenantInFlight() {
			out[tenant] += n
		}
	}
	return out
}

// probe answers a per-job question from the shard that placed the job
// or, for jobs the dispatcher holds no record of (the single-shard
// shortcut, completed jobs), from the first shard that knows it.
func (cl *Cluster) probe(jobID int, ask func(*agent.Core, int) (float64, bool)) (float64, bool) {
	if sh, ok := cl.placedShard(jobID); ok {
		return ask(cl.shards[sh], jobID)
	}
	for _, core := range cl.shards {
		if p, ok := ask(core, jobID); ok {
			return p, true
		}
	}
	return 0, false
}

// Prediction returns the placement-time HTM prediction of an
// in-flight job.
func (cl *Cluster) Prediction(jobID int) (float64, bool) {
	return cl.probe(jobID, (*agent.Core).Prediction)
}

// PredictedCompletion returns the owning trace's current projection of
// a placed job's completion date.
func (cl *Cluster) PredictedCompletion(jobID int) (float64, bool) {
	return cl.probe(jobID, (*agent.Core).PredictedCompletion)
}
