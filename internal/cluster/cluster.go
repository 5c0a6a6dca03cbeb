// Package cluster implements the sharded dispatch layer over the
// agent core: N independent agent.Core shards, each owning a partition
// of the server pool, behind one Cluster with the same driving surface
// as a single core — membership, Submit/SubmitBatch, Complete/Report
// feedback, and one merged event stream.
//
// The paper's single central agent is the scalability ceiling of the
// client-agent-server model: every decision consults every server's
// trace under one lock. Sharding partitions the pool (a pluggable
// ShardPolicy: hash, least-loaded, name-class affinity), so a
// decision's cost scales with the shard's candidate set instead of the
// whole pool, and independent shards evaluate concurrently. The
// dispatch layer routes work two ways:
//
//   - Submit fans the request out: every shard evaluates it against
//     its own partition (agent.Core.Evaluate — no commit), the
//     dispatcher compares the scored winners (sched.ScoredScheduler)
//     and commits on exactly one shard. For partition-decomposable
//     objectives (HMCT's completion date, MCT's estimate, MSF's
//     sum-flow...) this reproduces the centralized decision up to
//     cross-shard ties, at full fan-out evaluation cost.
//
//   - SubmitBatch routes a burst hierarchically by
//     power-of-two-choices over HTM-backed shard scores: the
//     in-flight leader and one uniformly sampled shard are compared
//     on their projected backlog at the burst's arrival (min
//     ProjectedReady over the partition, read from cached drain
//     memos) and the burst goes to the winner, which pipelines it
//     through its shard-local batch prediction cache.
//     Decision cost per burst is one candidate pass over one shard
//     rather than the whole pool — the throughput path, trading the
//     centralized greedy order across bursts for shard-local
//     optimality (the classic hierarchical-agent design; see
//     BenchmarkClusterSubmitBatch for the scaling curves). With
//     WithBatchAssignment the routed shard additionally places the
//     burst as true k-task min-cost waves instead of greedily.
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
// serialize on the dispatch lock; completions and reports only take
// the owning shard's lock, so feedback flows concurrently with
// evaluation on other shards.
package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"casched/internal/agent"
	"casched/internal/fair"
	"casched/internal/htm"
	"casched/internal/sched"
	"casched/internal/stats"
)

// placedRec is one dispatcher placement record: the shard (or member)
// that committed a job and when, for window-bounded retention.
type placedRec struct {
	shard int
	at    float64
}

// tieEps mirrors sched's tie tolerance for cross-shard comparisons.
const tieEps = 1e-9

// Config parameterizes a Cluster. Most callers use New with options.
type Config struct {
	// Shards is the number of agent cores (default 1).
	Shards int
	// Policy assigns servers to shards (default Hash()).
	Policy ShardPolicy
	// Core is the per-shard core template: seed, HTM options, log.
	// Its Scheduler field is used as the shared heuristic instance for
	// a single shard; multi-shard clusters need per-shard instances
	// (see NewScheduler).
	Core agent.Config
	// NewScheduler constructs one heuristic instance per shard
	// (stateful heuristics must not be shared across shard locks).
	// Nil derives a factory from Core.Scheduler's registry name.
	NewScheduler func() (sched.Scheduler, error)
	// IntakeRate, when positive, bounds the cluster's raw intake with
	// one dispatch-level token bucket of IntakeRate tasks per
	// experiment second and burst capacity IntakeBurst (default
	// max(IntakeRate, 1)): exactly one limiter per deployment, however
	// many shards. Refused requests are shed with agent.ErrThrottled
	// and an agent.EventShed on the merged stream.
	IntakeRate  float64
	IntakeBurst float64
	// PlacedWindow, when positive, bounds the dispatcher's job→shard
	// placement records to a trailing window of experiment seconds:
	// records older than the window are swept, so a long-lived
	// deployment whose completion messages occasionally go missing
	// holds dispatch memory proportional to the window, not the run.
	// Completions for swept jobs fall back to the server's current
	// shard. Zero keeps records until their completion arrives.
	PlacedWindow float64
}

// Option configures a Cluster (and, through CoreConfig, a single
// agent core) — the one construction idiom of the public facade.
type Option func(*Config)

// WithShards sets the number of agent-core shards.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithPolicy sets the server-to-shard assignment policy.
func WithPolicy(p ShardPolicy) Option { return func(c *Config) { c.Policy = p } }

// WithHeuristic selects the scheduling heuristic by registry name
// (case-insensitive: MCT, HMCT, MP, MSF, ...), constructing one
// instance per shard.
func WithHeuristic(name string) Option {
	return func(c *Config) {
		c.NewScheduler = func() (sched.Scheduler, error) { return sched.ByName(name) }
	}
}

// WithScheduler pins a heuristic instance (single-shard, or as the
// name source for per-shard reconstruction).
func WithScheduler(s sched.Scheduler) Option { return func(c *Config) { c.Core.Scheduler = s } }

// WithSchedulerFactory sets an explicit per-shard heuristic factory,
// for heuristics outside the registry.
func WithSchedulerFactory(f func() (sched.Scheduler, error)) Option {
	return func(c *Config) { c.NewScheduler = f }
}

// WithSeed seeds each shard's decision randomness.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Core.Seed = seed } }

// WithHTMWorkers bounds each shard's HTM evaluation worker pool
// (0 = GOMAXPROCS).
func WithHTMWorkers(n int) Option { return func(c *Config) { c.Core.HTMWorkers = n } }

// WithHTMRetention bounds each shard's HTM trace history to the given
// number of experiment seconds (see agent.Config.HTMRetention); zero
// keeps the unbounded paper behavior.
func WithHTMRetention(seconds float64) Option {
	return func(c *Config) { c.Core.HTMRetention = seconds }
}

// WithHTMSync enables HTM↔execution synchronization on every shard.
func WithHTMSync(on bool) Option { return func(c *Config) { c.Core.HTMSync = on } }

// WithBatchAssignment opts every shard's SubmitBatch into true k-task
// scheduling: batches are placed wave by wave through a min-cost
// assignment over the shared prediction matrix instead of greedily
// task by task (agent.Config.BatchAssignment). Requires a heuristic
// with a comparable objective.
func WithBatchAssignment(on bool) Option { return func(c *Config) { c.Core.BatchAssignment = on } }

// WithTenantShares turns on weighted fair-share arbitration of
// multi-tenant batches (agent.Config.TenantShares): each shard's
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
// stream to keep near-fresh member views while degraded.
func WithRelay(on bool) Option { return func(c *Config) { c.Core.Relay = on } }

// WithIntakeLimit bounds raw intake with one dispatch-level token
// bucket of rate tasks per experiment second and burst capacity burst
// (burst <= 0 defaults to max(rate, 1)). Applied to NewAgentCore it
// becomes the core's own bucket; on a cluster it sits in front of the
// dispatch layer, so a deployment has exactly one limiter regardless
// of shard count.
func WithIntakeLimit(rate, burst float64) Option {
	return func(c *Config) { c.IntakeRate, c.IntakeBurst = rate, burst }
}

// WithPlacedWindow bounds the dispatcher's job→shard (or, on a
// federation, job→member) placement records to a trailing
// experiment-time window; see Config.PlacedWindow.
func WithPlacedWindow(seconds float64) Option {
	return func(c *Config) { c.PlacedWindow = seconds }
}

// schedulerFor resolves one shard's heuristic instance.
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
	// Multi-shard: heuristics can carry per-instance state (RoundRobin,
	// SA) and shards evaluate concurrently, so each shard needs its own
	// instance; the registry reconstructs by name — but only when the
	// caller's instance IS a registry default, otherwise reconstruction
	// would silently drop its configuration (KPB{K: 20}, MP{Tie:
	// TieRandom}, ...).
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

// CoreConfig applies cluster options to a single-core configuration —
// how the facade's NewAgentCore shares the option idiom. Options that
// only make sense on a cluster (WithShards>1, WithPolicy) are
// rejected.
func CoreConfig(base agent.Config, opts ...Option) (agent.Config, error) {
	cfg := Config{Shards: 1, Core: base}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Shards != 1 {
		return agent.Config{}, fmt.Errorf("agent: a core is single-shard; use NewCluster(WithShards(%d))", cfg.Shards)
	}
	if cfg.Policy != nil {
		return agent.Config{}, errors.New("agent: WithShardPolicy applies to NewCluster, not NewAgentCore")
	}
	if cfg.PlacedWindow != 0 {
		return agent.Config{}, errors.New("agent: WithPlacedWindow applies to dispatch layers, not NewAgentCore")
	}
	// The dispatch-level intake limit becomes the single core's own
	// bucket: one limiter per deployment either way.
	if cfg.IntakeRate > 0 {
		cfg.Core.IntakeRate, cfg.Core.IntakeBurst = cfg.IntakeRate, cfg.IntakeBurst
	}
	s, err := cfg.schedulerFor()
	if err != nil {
		return agent.Config{}, err
	}
	cfg.Core.Scheduler = s
	return cfg.Core, nil
}

// Cluster is the sharded agent: N cores behind one dispatch layer.
// Construct with New.
type Cluster struct {
	policy ShardPolicy
	shards []*agent.Core

	// mu is the dispatch lock: membership, routing state and
	// cluster-level submissions.
	mu     sync.Mutex
	home   map[string]int    // server name -> shard index
	counts []int             // servers per shard
	placed map[int]placedRec // jobID -> placement record, evicted on completion
	rr     int               // rotation cursor for unscored heuristics
	rng    *stats.RNG        // power-of-two-choices sampling for batch routing
	// bucket is the dispatch-level intake limiter (nil = unlimited);
	// placedWindow/placedSwept bound the placed map (see
	// Config.PlacedWindow).
	bucket       *fair.TokenBucket
	placedWindow float64
	placedSwept  float64

	// emu guards the merged event stream (leaf lock: taken inside
	// shard emits, never the other way around).
	emu     sync.Mutex
	subs    map[int]func(agent.Event)
	nextSub int

	// Persistent fan-out workers: one goroutine per shard, fed through
	// fanChans with pointers into the reused fanCalls arena, so the
	// per-submit fan-out neither spawns goroutines nor allocates result
	// slices. Started lazily on the first multi-shard fan-out (fanOnce);
	// single-shard clusters never start them. Close stops them.
	fanOnce  sync.Once
	fanChans []chan *fanoutCall
	fanCalls []fanoutCall
	fanWG    sync.WaitGroup
}

// fanoutCall is one shard's slot in the reused fan-out arena.
type fanoutCall struct {
	req  agent.Request
	cand agent.Candidate
	err  error
	wg   *sync.WaitGroup
}

// New constructs a Cluster from functional options.
func New(opts ...Option) (*Cluster, error) {
	cfg := Config{Shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return NewFromConfig(cfg)
}

// NewFromConfig constructs a Cluster from an explicit Config.
func NewFromConfig(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: needs at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Policy == nil {
		cfg.Policy = Hash()
	}
	cl := &Cluster{
		policy:       cfg.Policy,
		shards:       make([]*agent.Core, cfg.Shards),
		home:         make(map[string]int),
		counts:       make([]int, cfg.Shards),
		placed:       make(map[int]placedRec),
		subs:         make(map[int]func(agent.Event)),
		rng:          stats.NewRNG(cfg.Core.Seed ^ 0x9e3779b97f4a7c15),
		placedWindow: cfg.PlacedWindow,
	}
	if cfg.IntakeRate > 0 {
		cl.bucket = fair.NewTokenBucket(cfg.IntakeRate, cfg.IntakeBurst)
	}
	for i := range cl.shards {
		s, err := cfg.schedulerFor()
		if err != nil {
			return nil, err
		}
		coreCfg := cfg.Core
		coreCfg.Scheduler = s
		core, err := agent.New(coreCfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		cl.shards[i] = core
		core.Subscribe(cl.forward)
	}
	return cl, nil
}

// forward relays one shard event into the merged stream. It runs on
// the emitting shard's goroutine with that shard's lock held; emu
// serializes deliveries, so every subscriber observes one total order
// that preserves each shard's commit order.
func (cl *Cluster) forward(ev agent.Event) {
	cl.emu.Lock()
	defer cl.emu.Unlock()
	for _, fn := range cl.subs {
		fn(ev)
	}
}

// Subscribe registers an observer on the merged event stream of every
// shard and returns its cancel function. Deliveries are serialized
// (one total order, per-shard commit order preserved); callbacks must
// be fast and must not call back into the Cluster.
func (cl *Cluster) Subscribe(fn func(agent.Event)) (cancel func()) {
	cl.emu.Lock()
	defer cl.emu.Unlock()
	id := cl.nextSub
	cl.nextSub++
	cl.subs[id] = fn
	return func() {
		cl.emu.Lock()
		defer cl.emu.Unlock()
		delete(cl.subs, id)
	}
}

// NumShards returns the number of agent-core shards.
func (cl *Cluster) NumShards() int { return len(cl.shards) }

// Shard exposes one shard's core for inspection (Gantt extraction,
// accuracy studies) — not for driving; use the Cluster surface.
func (cl *Cluster) Shard(i int) *agent.Core { return cl.shards[i] }

// EvalStats sums the shards' HTM evaluation counters
// (agent.Core.EvalStats).
func (cl *Cluster) EvalStats() htm.EvalStats {
	var total htm.EvalStats
	for _, sh := range cl.shards {
		st := sh.EvalStats()
		total.Candidates += st.Candidates
		total.Projections += st.Projections
		total.NameLookups += st.NameLookups
		total.IndexBuilds += st.IndexBuilds
	}
	return total
}

// UsesHTM reports whether the configured heuristic consumes the HTM.
func (cl *Cluster) UsesHTM() bool { return cl.shards[0].UsesHTM() }

// AddServer registers a server, routed to a shard by the policy.
// Idempotent by name.
func (cl *Cluster) AddServer(name string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if _, ok := cl.home[name]; ok {
		return
	}
	sh := ClampIndex(cl.policy.Assign(name, cl.counts), len(cl.shards))
	cl.home[name] = sh
	cl.counts[sh]++
	cl.shards[sh].AddServer(name)
}

// RemoveServer withdraws a server from its shard (collapse,
// decommission). Policies that auto-balance trigger a rebalance when
// partition sizes drift apart.
func (cl *Cluster) RemoveServer(name string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	sh, ok := cl.home[name]
	if !ok {
		return
	}
	delete(cl.home, name)
	cl.counts[sh]--
	cl.shards[sh].RemoveServer(name)
	if ab, ok := cl.policy.(AutoBalancer); ok && ab.AutoBalance() {
		cl.rebalanceLocked()
	}
}

// Rebalance migrates servers from over-full to under-full shards until
// partition sizes differ by at most one. A migrated server starts a
// fresh HTM trace and belief on its new shard — exactly a server
// re-registering — while its in-flight jobs keep resolving through the
// shard that placed them.
func (cl *Cluster) Rebalance() (moved int) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.rebalanceLocked()
}

// rebalanceLocked implements Rebalance. Caller holds cl.mu.
func (cl *Cluster) rebalanceLocked() (moved int) {
	repaired := false
	for {
		maxI, minI := 0, 0
		for i, c := range cl.counts {
			if c > cl.counts[maxI] {
				maxI = i
			}
			if c < cl.counts[minI] {
				minI = i
			}
		}
		if cl.counts[maxI]-cl.counts[minI] < 2 {
			return moved
		}
		// Deterministic victim: the lexicographically last server of
		// the over-full shard.
		victim, found := "", false
		for name, sh := range cl.home {
			if sh == maxI && (!found || name > victim) {
				victim, found = name, true
			}
		}
		if !found {
			// cl.counts says shard maxI is over-full but cl.home maps
			// no server to it: the routing state disagrees with
			// itself. Rebuild counts from home (the authoritative map)
			// once and retry; if the disagreement persists, stop
			// rather than loop forever on a phantom victim.
			if repaired {
				return moved
			}
			repaired = true
			for i := range cl.counts {
				cl.counts[i] = 0
			}
			for _, sh := range cl.home {
				if sh >= 0 && sh < len(cl.counts) {
					cl.counts[sh]++
				}
			}
			continue
		}
		cl.shards[maxI].RemoveServer(victim)
		cl.shards[minI].AddServer(victim)
		cl.home[victim] = minI
		cl.counts[maxI]--
		cl.counts[minI]++
		moved++
	}
}

// Servers returns every registered server in sorted order.
func (cl *Cluster) Servers() []string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]string, 0, len(cl.home))
	for name := range cl.home {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ShardOf returns the shard a server is assigned to.
func (cl *Cluster) ShardOf(server string) (int, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	sh, ok := cl.home[server]
	return sh, ok
}

// LoadEstimate returns the owning shard's belief of the server's load.
func (cl *Cluster) LoadEstimate(server string) float64 {
	cl.mu.Lock()
	sh, ok := cl.home[server]
	cl.mu.Unlock()
	if !ok {
		return 0
	}
	return cl.shards[sh].LoadEstimate(server)
}

// InFlight returns the number of placed-but-uncompleted jobs across
// all shards.
func (cl *Cluster) InFlight() int {
	n := 0
	for _, core := range cl.shards {
		n += core.InFlight()
	}
	return n
}

// shed synthesizes a dispatch-level shed event into the merged stream.
// Used for refusals the shards never see (the cluster's own intake
// bucket) or that no single shard owns (fan-out deadline refusals,
// where shards only evaluate and must not emit).
func (cl *Cluster) shed(req agent.Request, reason string) {
	cl.forward(agent.Event{
		Kind:     agent.EventShed,
		Time:     req.Arrival,
		JobID:    req.JobID,
		TaskID:   req.TaskID,
		Attempt:  req.Attempt,
		Tenant:   req.Tenant,
		Deadline: req.Deadline,
		Reason:   reason,
	})
}

// notePlacedLocked records which shard committed a job, sweeping
// expired records when a retention window is set. Caller holds cl.mu.
func (cl *Cluster) notePlacedLocked(jobID, sh int, at float64) {
	cl.placed[jobID] = placedRec{shard: sh, at: at}
	cl.sweepPlacedLocked(at)
}

// sweepPlacedLocked evicts placement records older than the retention
// window. Amortized: the full scan runs at most twice per window.
// Caller holds cl.mu.
func (cl *Cluster) sweepPlacedLocked(now float64) {
	if cl.placedWindow <= 0 || now-cl.placedSwept < cl.placedWindow/2 {
		return
	}
	cl.placedSwept = now
	cutoff := now - cl.placedWindow
	for id, rec := range cl.placed {
		if rec.at < cutoff {
			delete(cl.placed, id)
		}
	}
}

// Submit routes one task: every shard evaluates the request against
// its own partition (fan-out, no commit), the scored winners are
// compared, and the placement commits on exactly one shard. Heuristics
// without a comparable objective (Random, RoundRobin, wrappers outside
// sched.ScoredScheduler) are instead routed whole to a rotating
// eligible shard — fanning them out would advance stateful heuristics
// on shards that never commit and starve servers. See the package
// comment for the decision-quality contract.
//
// With an intake limit configured, requests the dispatch-level bucket
// refuses are shed with agent.ErrThrottled before any shard is
// consulted. With admission on, a request no shard can finish by its
// deadline is shed with agent.ErrDeadlineUnmet.
func (cl *Cluster) Submit(req agent.Request) (agent.Decision, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.bucket != nil && !cl.bucket.Take(req.Arrival) {
		cl.shed(req, agent.ShedThrottled)
		return agent.Decision{}, fmt.Errorf("cluster: job %d: %w", req.JobID, agent.ErrThrottled)
	}
	if len(cl.shards) == 1 {
		return cl.shards[0].Submit(req)
	}
	if _, scored := cl.shards[0].Scheduler().(sched.ScoredScheduler); !scored {
		return cl.submitRotateLocked(req)
	}
	dec, _, err := cl.submitFanoutLocked(req)
	return dec, err
}

// submitRotateLocked delegates one whole decision to a rotating
// eligible shard; only that shard's heuristic state advances. Caller
// holds cl.mu.
func (cl *Cluster) submitRotateLocked(req agent.Request) (agent.Decision, error) {
	eligible := make([]int, 0, len(cl.shards))
	for i, core := range cl.shards {
		if cl.counts[i] > 0 && core.CanSolve(req.Spec) {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return agent.Decision{}, agent.ErrUnschedulable
	}
	sh := eligible[cl.rr%len(eligible)]
	cl.rr++
	dec, err := cl.shards[sh].Submit(req)
	if err != nil {
		return agent.Decision{}, err
	}
	cl.notePlacedLocked(req.JobID, sh, req.Arrival)
	return dec, nil
}

// submitFanoutLocked is the fan-out/commit-on-winner path. Caller
// holds cl.mu.
//
// Error contract (mirroring htm.Manager.EvaluateAll): as long as one
// shard produces a winner the decision commits and per-shard
// evaluation failures are suppressed — a shard that cannot evaluate
// excludes only its own partition from the candidate set. Shard errors
// surface only when every shard fails.
func (cl *Cluster) submitFanoutLocked(req agent.Request) (agent.Decision, int, error) {
	cl.fanOnce.Do(cl.startFanoutWorkers)
	cl.fanWG.Add(len(cl.shards))
	for i := range cl.shards {
		c := &cl.fanCalls[i]
		c.req = req
		c.cand, c.err = agent.Candidate{}, nil
		c.wg = &cl.fanWG
		cl.fanChans[i] <- c
	}
	cl.fanWG.Wait()

	winner := -1
	deadlineBlocked := false
	var best agent.Candidate
	var errs []error
	for i := range cl.fanCalls {
		r := &cl.fanCalls[i]
		if r.err != nil {
			switch {
			case errors.Is(r.err, agent.ErrDeadlineUnmet):
				// A per-shard exclusion, like ErrUnschedulable: another
				// shard's partition may still meet the deadline. Shards
				// do not emit on Evaluate, so if every shard is blocked
				// the dispatcher synthesizes the shed below.
				deadlineBlocked = true
			case !errors.Is(r.err, agent.ErrUnschedulable):
				errs = append(errs, fmt.Errorf("cluster: shard %d: %w", i, r.err))
			}
			continue
		}
		if winner < 0 || BetterCandidate(r.cand, best) {
			winner, best = i, r.cand
		}
	}
	if winner < 0 {
		if len(errs) > 0 {
			return agent.Decision{}, -1, errors.Join(errs...)
		}
		if deadlineBlocked {
			cl.shed(req, agent.ShedDeadline)
			return agent.Decision{}, -1, fmt.Errorf("cluster: job %d: %w", req.JobID, agent.ErrDeadlineUnmet)
		}
		return agent.Decision{}, -1, agent.ErrUnschedulable
	}
	dec, err := cl.shards[winner].Commit(req, best.Server)
	if err != nil {
		return agent.Decision{}, -1, fmt.Errorf("cluster: commit on shard %d: %w", winner, err)
	}
	cl.notePlacedLocked(req.JobID, winner, req.Arrival)
	return dec, winner, nil
}

// startFanoutWorkers launches the persistent per-shard evaluation
// workers. Each worker serves one shard for the dispatcher's lifetime,
// so a submit's fan-out costs len(shards) channel sends on warm
// goroutines rather than len(shards) goroutine spawns plus a results
// slice. Called exactly once, under cl.mu, via fanOnce.
func (cl *Cluster) startFanoutWorkers() {
	cl.fanCalls = make([]fanoutCall, len(cl.shards))
	cl.fanChans = make([]chan *fanoutCall, len(cl.shards))
	for i := range cl.shards {
		ch := make(chan *fanoutCall)
		cl.fanChans[i] = ch
		core := cl.shards[i]
		go func() {
			for call := range ch {
				call.cand, call.err = core.Evaluate(call.req)
				call.wg.Done()
			}
		}()
	}
}

// Close stops the persistent fan-out workers, if any were started. The
// dispatcher must not be used after Close; it is safe to call on a
// dispatcher that never fanned out (including single-shard clusters)
// and safe to call at most once.
func (cl *Cluster) Close() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, ch := range cl.fanChans {
		close(ch)
	}
	cl.fanChans = nil
}

// SubmitBatch routes a burst of simultaneous arrivals hierarchically
// by power-of-two-choices over HTM-backed shard scores: the in-flight
// leader and one uniformly sampled other shard are compared on their
// projected backlog at the burst's arrival (min ProjectedReady over
// the partition minus the arrival date — read from O(1) cached drain
// memos, no candidate projections), and the batch goes to the winner,
// which pipelines it through one lock acquisition and its shard-local
// batch prediction cache (see batchOrderLocked for the scoring and
// tie rules). Only those two shards pay an HTM read per burst; the
// cheap in-flight ranking still scans every shard, as the previous
// router did. Monitor-only heuristics (no HTM) compare on the
// in-flight/partition-size signal directly. Requests the routed shard
// cannot solve fall to the next-best eligible shard by the cheap
// ranking, so a mixed batch fans out only as far as eligibility
// forces it. Failed requests yield zero Decisions with their errors
// joined, like agent.Core.SubmitBatch.
// With an intake limit configured, the dispatch-level bucket gates the
// whole batch first: refused requests are shed with agent.ErrThrottled
// before any shard is consulted (including the single-shard fast
// path), and the admitted remainder is routed as usual. Per-shard
// admission and fair-share arbitration run inside each routed
// sub-batch, on the shard that owns it.
func (cl *Cluster) SubmitBatch(reqs []agent.Request) ([]agent.Decision, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var errs []error
	live, keep := reqs, []int(nil)
	if cl.bucket != nil {
		live = make([]agent.Request, 0, len(reqs))
		keep = make([]int, 0, len(reqs))
		for i, req := range reqs {
			if !cl.bucket.Take(req.Arrival) {
				cl.shed(req, agent.ShedThrottled)
				errs = append(errs, fmt.Errorf("cluster: batch job %d: %w", req.JobID, agent.ErrThrottled))
				continue
			}
			live = append(live, req)
			keep = append(keep, i)
		}
	}
	// scatter maps shard results for the admitted sub-slice back to the
	// caller's positions when the gate dropped anything.
	scatter := func(decs []agent.Decision) []agent.Decision {
		if keep == nil {
			return decs
		}
		out := make([]agent.Decision, len(reqs))
		for k, pos := range keep {
			out[pos] = decs[k]
		}
		return out
	}
	if len(cl.shards) == 1 {
		decs, err := cl.shards[0].SubmitBatch(live)
		if err != nil {
			errs = append(errs, err)
		}
		return scatter(decs), errors.Join(errs...)
	}
	at := 0.0
	if len(live) > 0 {
		at = live[0].Arrival
	}
	order := cl.batchOrderLocked(at)

	assign := make([]int, len(live))
	subBatches := make(map[int][]int) // shard -> positions within live
	for i, req := range live {
		assign[i] = -1
		for _, sh := range order {
			if cl.counts[sh] > 0 && cl.shards[sh].CanSolve(req.Spec) {
				assign[i] = sh
				subBatches[sh] = append(subBatches[sh], i)
				break
			}
		}
		if assign[i] < 0 {
			errs = append(errs, fmt.Errorf("cluster: batch job %d: %w", req.JobID, agent.ErrUnschedulable))
		}
	}

	out := make([]agent.Decision, len(live))
	shardErrs := make(map[int]error, len(subBatches))
	var wg sync.WaitGroup
	var emu sync.Mutex
	for sh, positions := range subBatches {
		wg.Add(1)
		go func(sh int, positions []int) {
			defer wg.Done()
			sub := make([]agent.Request, len(positions))
			for k, pos := range positions {
				sub[k] = live[pos]
			}
			decs, err := cl.shards[sh].SubmitBatch(sub)
			for k, pos := range positions {
				out[pos] = decs[k]
			}
			if err != nil {
				emu.Lock()
				shardErrs[sh] = err
				emu.Unlock()
			}
		}(sh, positions)
	}
	wg.Wait()
	for sh, err := range shardErrs {
		errs = append(errs, fmt.Errorf("cluster: shard %d: %w", sh, err))
	}
	for i, d := range out {
		if d.Server != "" {
			cl.notePlacedLocked(live[i].JobID, assign[i], live[i].Arrival)
		}
	}
	return scatter(out), errors.Join(errs...)
}

// batchOrderLocked returns the shard indexes in routing-preference
// order for one batch arriving at date at: the shared
// power-of-two-choices ranking (TwoChoicesOrder) over the shards'
// live signals — in-flight counts and the O(1) min-ProjectedReady
// drain memo from the HTM baseline cache. Caller holds cl.mu.
func (cl *Cluster) batchOrderLocked(at float64) []int {
	idx := make([]int, len(cl.shards))
	for i := range idx {
		idx[i] = i
	}
	return TwoChoicesOrder(idx,
		func(i int) int { return cl.counts[i] },
		func(i int) int { return cl.shards[i].InFlight() },
		func(i int) (float64, bool) { return cl.shards[i].MinProjectedReady() },
		at, cl.rng)
}

// Complete feeds a completion message to the shard that placed the
// job (falling back to the server's current shard for jobs the
// dispatcher never saw).
func (cl *Cluster) Complete(jobID int, server string, at float64) agent.Completion {
	cl.mu.Lock()
	sh := 0
	if rec, ok := cl.placed[jobID]; ok {
		sh = rec.shard
		delete(cl.placed, jobID)
	} else if h, okh := cl.home[server]; okh {
		// Unrouted jobs — and routed ones whose record aged out of the
		// retention window — resolve through the server's current
		// shard: the degraded-but-correct path as long as the server
		// has not migrated since placement.
		sh = h
	}
	core := cl.shards[sh]
	cl.mu.Unlock()
	return core.Complete(jobID, server, at)
}

// Report feeds a monitor report to the server's shard; reports for
// unknown servers are dropped, as the core itself drops them.
func (cl *Cluster) Report(server string, load, at float64) {
	cl.mu.Lock()
	sh, ok := cl.home[server]
	cl.mu.Unlock()
	if ok {
		cl.shards[sh].Report(server, load, at)
	}
}

// placedShard resolves the shard that placed a job, when the
// dispatcher routed it (and the record has not aged out).
func (cl *Cluster) placedShard(jobID int) (int, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	rec, ok := cl.placed[jobID]
	return rec.shard, ok
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

// Prediction returns the placement-time HTM prediction of an
// in-flight job. The dispatcher's placement record resolves the shard
// directly; jobs it never routed (single-shard fast paths) fall back
// to probing every shard.
func (cl *Cluster) Prediction(jobID int) (float64, bool) {
	if sh, ok := cl.placedShard(jobID); ok {
		return cl.shards[sh].Prediction(jobID)
	}
	for _, core := range cl.shards {
		if p, ok := core.Prediction(jobID); ok {
			return p, true
		}
	}
	return 0, false
}

// PredictedCompletion returns the owning trace's current projection of
// a placed job's completion date. Completed jobs have left the
// dispatcher's placement record, so the probe fallback also serves
// them.
func (cl *Cluster) PredictedCompletion(jobID int) (float64, bool) {
	if sh, ok := cl.placedShard(jobID); ok {
		return cl.shards[sh].PredictedCompletion(jobID)
	}
	for _, core := range cl.shards {
		if p, ok := core.PredictedCompletion(jobID); ok {
			return p, true
		}
	}
	return 0, false
}

// FinalPredictions merges every shard's end-of-run projections.
func (cl *Cluster) FinalPredictions() map[int]float64 {
	out := make(map[int]float64)
	for _, core := range cl.shards {
		for id, p := range core.FinalPredictions() {
			out[id] = p
		}
	}
	return out
}
