// Package agent implements the transport-agnostic Agent Core: the one
// decision engine of the paper's client-agent-server model, shared by
// every runtime that embodies it.
//
// The paper's agent is a single algorithm — filter the candidate
// servers, consult the heuristic (and through it the HTM), commit the
// placement, and maintain the NetSolve monitor beliefs with their two
// load corrections — yet transports differ: the discrete-event
// simulator (internal/grid) drives it synchronously under virtual
// time, the TCP runtime (internal/live) under concurrent RPC handlers
// on a scaled wall clock, and library users through the casched
// facade as a long-lived streaming agent. The Core owns everything
// those drivers would otherwise duplicate:
//
//   - server membership (AddServer/RemoveServer), including the HTM
//     trace lifecycle and belief reset;
//   - monitor beliefs: last reported load plus the two NetSolve
//     corrections (increment on assignment, decrement on completion);
//   - candidate filtering, heuristic invocation, HTM Place/commit and
//     per-task prediction tracking (entries are evicted when the task
//     completes, so a long-lived deployment does not leak);
//   - resubmission bookkeeping: each scheduling attempt is a distinct
//     job id carrying its task id and attempt number.
//
// Drivers call Submit (or SubmitBatch) per arriving task, Complete on
// completion messages and Report on monitor reports; everything else —
// clocks, sockets, execution, fault detection — stays in the driver.
//
// The Core is safe for concurrent use. Observability is exposed as an
// event stream (Subscribe): decisions, completions, reports and
// membership changes, in commit order.
package agent

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"casched/internal/fair"
	"casched/internal/htm"
	"casched/internal/relay"
	"casched/internal/sched"
	"casched/internal/stats"
	"casched/internal/task"
	"casched/internal/trace"
)

// ErrUnschedulable is returned by Submit when no registered server can
// solve the task — NetSolve's "no server solves this problem" reply,
// as opposed to a heuristic failure.
var ErrUnschedulable = errors.New("agent: no candidate server")

// ErrDeadlineUnmet is returned when deadline-aware admission sheds a
// task: every candidate server's predicted completion exceeds the
// task's deadline, so accepting it would only add load it cannot repay.
var ErrDeadlineUnmet = errors.New("agent: predicted completion exceeds deadline on every candidate")

// ErrBeaten is returned, unwrapped, by EvaluateBelow when no candidate
// of the core's could pass one of the given ceiling (htm.ErrBeaten).
var ErrBeaten = htm.ErrBeaten

// ErrThrottled is returned when the intake token bucket sheds a task:
// the deployment's configured intake rate is exhausted.
var ErrThrottled = errors.New("agent: intake rate limit exceeded")

// Config parameterizes a Core.
type Config struct {
	// Scheduler is the heuristic the core applies (required).
	Scheduler sched.Scheduler
	// Seed drives randomized heuristics and tie-breaking.
	Seed uint64
	// RNG, when non-nil, overrides Seed as the decision randomness
	// source (drivers with an existing seeded stream pass it through so
	// results stay reproducible).
	RNG *stats.RNG
	// HTMSync enables HTM↔execution synchronization: completion
	// messages re-anchor the trace (§7 extension).
	HTMSync bool
	// HTMMemory makes the HTM model server memory (§7 extension).
	HTMMemory bool
	// HTMWorkers is ignored: the HTM evaluates candidates one after the
	// other under its lock. It remains so that existing callers compile.
	HTMWorkers int
	// HTMRetention bounds the HTM trace history (htm.WithRetention):
	// completed-job records older than this many experiment seconds are
	// pruned as the trace advances, keeping a long-lived deployment's
	// memory bounded. Zero keeps the paper's unbounded behavior.
	HTMRetention float64
	// TenantShares, when non-nil, turns on fair-share arbitration of
	// multi-tenant batches: SubmitBatch offers tasks to the heuristic
	// in weighted fair-clock order across tenants (see internal/fair)
	// instead of submission order. Keys are tenant paths ("gold",
	// "gold/alice" for nested client shares), values are share weights;
	// tenants absent from the map weigh fair.DefaultWeight. Single-
	// tenant traffic is arbitration-free by construction and keeps the
	// historical decision sequence bit-for-bit.
	TenantShares map[string]float64
	// Admission turns on deadline-aware admission control: a request
	// carrying a deadline is shed with ErrDeadlineUnmet when every
	// candidate's predicted completion (HTM projected-ready drain, or
	// the monitor load estimate for monitor heuristics) exceeds it.
	// Requests without a deadline are never deadline-shed.
	Admission bool
	// IntakeRate, when positive, bounds raw intake with a token bucket
	// of IntakeRate tasks per experiment second and burst capacity
	// IntakeBurst (default max(IntakeRate, 1)); refused tasks are shed
	// with ErrThrottled. The bucket runs on experiment time (request
	// arrival dates), so replays are deterministic.
	IntakeRate  float64
	IntakeBurst float64
	// Relay turns on the live event relay ledger: every committed
	// decision and consumed completion is appended, sequence-numbered,
	// to a bounded ring (internal/relay.Ledger) that a federation
	// dispatcher polls for near-fresh routing state between gossiped
	// summaries. Off, the default, costs nothing.
	Relay bool
	// RelayCapacity bounds the relay ring (0 = relay.DefaultCapacity).
	RelayCapacity int
	// BatchAssignment opts SubmitBatch into true k-task scheduling:
	// each batch is placed wave by wave through a min-cost assignment
	// over the per-pair objective matrix (sched.MinCostBatch) instead
	// of greedily task by task. Requires a heuristic with a comparable
	// objective (sched.ScoredScheduler), or one that implements
	// sched.BatchScheduler itself. Off, the default, keeps SubmitBatch
	// decision-identical to sequential Submit.
	BatchAssignment bool
	// Log, when non-nil, receives "schedule" and "done" records.
	Log *trace.Log
}

// Request is one task (re)submission presented to the core.
type Request struct {
	// JobID identifies this scheduling attempt; resubmissions of the
	// same task use distinct job ids.
	JobID int
	// TaskID is the client-facing task identifier (equal to JobID on
	// first attempts in transports without fault tolerance).
	TaskID int
	// Attempt is the fault-tolerance attempt number (0 = first).
	Attempt int
	// Spec describes the task type and its per-server costs.
	Spec *task.Spec
	// Arrival is the decision instant in experiment seconds.
	Arrival float64
	// Submitted is the client-side submission date exposed to the
	// heuristic as Task.Arrival (a resubmission is decided later than
	// it was submitted). Zero defaults to Arrival.
	Submitted float64
	// Tenant identifies the submitting tenant for fair-share
	// arbitration and per-tenant accounting ("" = the anonymous
	// single stream). Nested shares separate levels with "/".
	Tenant string
	// Deadline is the absolute experiment-time completion deadline for
	// admission control. Zero means none.
	Deadline float64
}

// Decision is the committed outcome of one Submit.
type Decision struct {
	// JobID echoes the request.
	JobID int
	// Server is the chosen server.
	Server string
	// Predicted is the HTM's completion prediction at placement time;
	// valid only when HasPrediction (HTM-based heuristics).
	Predicted     float64
	HasPrediction bool
}

// Completion is the core's record of one completed job.
type Completion struct {
	JobID   int
	TaskID  int
	Attempt int
	Server  string
	Time    float64
}

// EventKind discriminates core events.
type EventKind int

const (
	// EventDecision is emitted after each committed placement.
	EventDecision EventKind = iota
	// EventCompletion is emitted for each completion message.
	EventCompletion
	// EventReport is emitted for each monitor report.
	EventReport
	// EventServerAdded and EventServerRemoved track membership.
	EventServerAdded
	EventServerRemoved
	// EventShed is emitted when the intake path refuses a request —
	// throttled by the token bucket or shed by deadline admission —
	// with the cause in Reason.
	EventShed
)

// Shed reasons carried in Event.Reason.
const (
	// ShedThrottled: the intake token bucket was empty.
	ShedThrottled = "throttled"
	// ShedDeadline: no candidate's predicted completion met the
	// deadline.
	ShedDeadline = "deadline"
)

// Event is one observable core transition, delivered to subscribers in
// commit order.
type Event struct {
	Kind    EventKind
	Time    float64
	Server  string
	JobID   int
	TaskID  int
	Attempt int
	// Load is the reported value (EventReport only).
	Load float64
	// Predicted/HasPrediction carry the placement-time HTM prediction
	// (EventDecision only).
	Predicted     float64
	HasPrediction bool
	// Tenant and Deadline echo the request (decisions, completions and
	// sheds; empty/zero for untagged traffic).
	Tenant   string
	Deadline float64
	// Submitted is the client-side submission date (decisions and
	// completions), so observers can derive flow without job-table
	// lookups.
	Submitted float64
	// Reason is the shed cause (EventShed only): ShedThrottled or
	// ShedDeadline.
	Reason string
}

// belief is the monitor-based view of one server: NetSolve's last
// reported load plus the two corrections.
type belief struct {
	reported       float64
	assignedSince  int
	completedSince int
}

// estimate implements the NetSolve information model.
func (b *belief) estimate() float64 {
	e := b.reported + float64(b.assignedSince) - float64(b.completedSince)
	if e < 0 {
		return 0
	}
	return e
}

// jobMeta is the resubmission and tenancy bookkeeping attached to a
// job id while it is in flight.
type jobMeta struct {
	taskID    int
	attempt   int
	tenant    string
	deadline  float64
	submitted float64
}

// Core is the shared decision engine. Construct with New; drive with
// AddServer/Submit/Complete/Report.
type Core struct {
	cfg    Config
	useHTM bool
	// batch is the k-task wave scheduler SubmitBatch uses when
	// Config.BatchAssignment is set; nil selects the greedy path.
	batch sched.BatchScheduler

	mu          sync.Mutex
	beliefs     map[string]*belief
	order       []string // registered server names, sorted
	htmMgr      *htm.Manager
	rng         *stats.RNG
	predictions map[int]float64 // jobID -> prediction at placement; evicted on completion
	jobs        map[int]jobMeta // jobID -> task/attempt; evicted on completion
	subs        map[int]func(Event)
	nextSub     int
	// eval is the HTM surface Submit and the greedy and fair batch paths
	// hand the heuristic: the manager's pruning view for the objective the
	// heuristic declares (sched.EvaluatorFor); nil without an HTM. A burst's
	// later members are served from the HTM's memo where their candidates
	// are unchanged; the matched batch path reads the exhaustive manager.
	eval sched.Evaluator
	// minimizer is eval as the manager's pruning view, and below its copy
	// under EvaluateBelow's ceiling; minimizer is nil without an HTM.
	minimizer *htm.Minimizer
	below     htm.Minimizer
	// ledger arbitrates multi-tenant batches (nil = fairness off);
	// bucket gates raw intake (nil = unlimited); tenantLoad counts
	// in-flight jobs per tenant for fairness-aware dispatch.
	ledger     *fair.Ledger
	bucket     *fair.TokenBucket
	tenantLoad map[string]int
	// relayLog, when non-nil, records decision/completion events for
	// the federation event relay (Config.Relay). Appends happen under
	// c.mu so ledger sequence order matches commit order.
	relayLog *relay.Ledger

	// candCache is, for a core without an HTM, what the HTM's candidate
	// index is for one with: each spec's solvable servers in name order,
	// keyed by spec pointer, at most maxCachedSpecs of them, dropped
	// wholesale when full and on every membership change.
	candCache map[*task.Spec][]string

	// Decision-path scratch, reused across submits under c.mu: the
	// heuristic context (whose PredBuf the prediction path grows in
	// place) and the task header handed to the heuristic. Single-submit
	// decisions allocate nothing from these once they have grown to the
	// working-set size.
	evalCtx  sched.Context
	evalTask task.Task
}

// maxCachedSpecs bounds candCache, as htm's cap bounds its index.
const maxCachedSpecs = 32

// New constructs a Core with no servers; drivers add membership with
// AddServer as servers register (NetSolve's deployment order: agent
// first, then servers, then clients).
func New(cfg Config) (*Core, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("agent: core needs a scheduler")
	}
	c := &Core{
		cfg:         cfg,
		useHTM:      sched.UsesHTM(cfg.Scheduler),
		beliefs:     make(map[string]*belief),
		rng:         cfg.RNG,
		predictions: make(map[int]float64),
		jobs:        make(map[int]jobMeta),
		subs:        make(map[int]func(Event)),
		tenantLoad:  make(map[string]int),
	}
	if c.rng == nil {
		c.rng = stats.NewRNG(cfg.Seed)
	}
	if cfg.TenantShares != nil {
		c.ledger = fair.NewLedger(cfg.TenantShares)
	}
	if cfg.IntakeRate > 0 {
		c.bucket = fair.NewTokenBucket(cfg.IntakeRate, cfg.IntakeBurst)
	}
	if cfg.Relay {
		c.relayLog = relay.NewLedger(cfg.RelayCapacity)
	}
	if cfg.BatchAssignment {
		switch s := cfg.Scheduler.(type) {
		case sched.BatchScheduler:
			c.batch = s
		case sched.ScoredScheduler:
			c.batch = sched.NewMinCostBatch(s)
		default:
			return nil, fmt.Errorf("agent: batch assignment needs a heuristic with a comparable objective; %s has none",
				cfg.Scheduler.Name())
		}
	}
	if c.useHTM {
		var opts []htm.Option
		if cfg.HTMSync {
			opts = append(opts, htm.WithSync())
		}
		if cfg.HTMMemory {
			opts = append(opts, htm.WithMemoryModel())
		}
		if cfg.HTMRetention > 0 {
			opts = append(opts, htm.WithRetention(cfg.HTMRetention))
		}
		c.htmMgr = htm.New(nil, opts...)
		ev := sched.EvaluatorFor(cfg.Scheduler, c.htmMgr)
		c.eval = ev
		c.minimizer, _ = ev.(*htm.Minimizer)
	} else {
		c.candCache = make(map[*task.Spec][]string)
	}
	return c, nil
}

// UsesHTM reports whether the configured heuristic consumes the HTM.
func (c *Core) UsesHTM() bool { return c.useHTM }

// HTM exposes the core's trace manager (nil for monitor-based
// heuristics). Intended for end-of-run inspection — Gantt extraction,
// accuracy studies — not for concurrent mutation.
func (c *Core) HTM() *htm.Manager { return c.htmMgr }

// EvalStats returns the HTM's evaluation counters: solvable candidates
// offered and candidates projected, whose difference is what pruning
// skipped. Zero for monitor-based heuristics.
func (c *Core) EvalStats() htm.EvalStats {
	if c.htmMgr == nil {
		return htm.EvalStats{}
	}
	return c.htmMgr.EvalStats()
}

// Subscribe registers an observer for core events and returns its
// cancel function. Callbacks run synchronously on the mutating
// goroutine, in commit order, with the core lock held: they must be
// fast and must not call back into the Core.
func (c *Core) Subscribe(fn func(Event)) (cancel func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextSub
	c.nextSub++
	c.subs[id] = fn
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.subs, id)
	}
}

// emit delivers an event to every subscriber. Caller holds c.mu.
func (c *Core) emit(ev Event) {
	for _, fn := range c.subs {
		fn(ev)
	}
}

// AddServer registers a server with the core: a fresh monitor belief
// and, for HTM heuristics, a fresh trace anchored at the current trace
// time. Idempotent by name.
func (c *Core) AddServer(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.beliefs[name]; ok {
		return
	}
	c.beliefs[name] = &belief{}
	c.order = slices.Insert(c.order, sort.SearchStrings(c.order, name), name)
	clear(c.candCache)
	if c.htmMgr != nil {
		c.htmMgr.AddServer(name)
	}
	c.emit(Event{Kind: EventServerAdded, Server: name, TaskID: -1})
}

// RemoveServer withdraws a server from the candidate pool (collapse,
// decommission): its belief is dropped and its HTM trace is no longer
// consulted. Jobs already placed on it keep their records.
func (c *Core) RemoveServer(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.beliefs[name]; !ok {
		return
	}
	delete(c.beliefs, name)
	if i, ok := slices.BinarySearch(c.order, name); ok {
		c.order = slices.Delete(c.order, i, i+1)
	}
	clear(c.candCache)
	if c.htmMgr != nil {
		c.htmMgr.DropServer(name)
	}
	c.emit(Event{Kind: EventServerRemoved, Server: name, TaskID: -1})
}

// Servers returns the registered server names in sorted order.
func (c *Core) Servers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// LoadEstimate implements sched.LoadInfo for external observers: the
// agent's current belief of the number of tasks running on the server.
func (c *Core) LoadEstimate(server string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return coreLoadInfo{c}.LoadEstimate(server)
}

// coreLoadInfo is the unlocked sched.LoadInfo adapter handed to
// heuristics, which run while Submit already holds c.mu.
type coreLoadInfo struct{ c *Core }

func (li coreLoadInfo) LoadEstimate(server string) float64 {
	if b, ok := li.c.beliefs[server]; ok {
		return b.estimate()
	}
	return 0
}

// Submit maps one task through the intake path — token bucket,
// deadline admission, heuristic — and commits the decision: assignment
// load correction, HTM placement, prediction tracking.
// ErrUnschedulable means no registered server solves the task;
// ErrThrottled and ErrDeadlineUnmet mean the intake path shed it (an
// EventShed is emitted with the cause).
func (c *Core) Submit(req Request) (Decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bucket != nil && !c.bucket.Take(req.Arrival) {
		c.shedLocked(req, ShedThrottled)
		return Decision{}, fmt.Errorf("agent: job %d: %w", req.JobID, ErrThrottled)
	}
	d, err := c.submitLocked(req)
	if errors.Is(err, ErrDeadlineUnmet) {
		c.shedLocked(req, ShedDeadline)
	}
	return d, err
}

// SubmitBatch pipelines k simultaneous arrivals through one lock
// acquisition. Each member goes through the pass Submit uses, and the
// HTM serves a candidate from its memo when the candidate's trace has not
// changed since its last projection at the same arrival, so a burst's
// later members project little more than the server the previous
// placement changed.
//
// By default decisions are identical to submitting the requests one by
// one (the reuse is exact: a server's prediction depends only on its
// own trace). With Config.BatchAssignment the batch is instead placed
// as true k-task waves: a min-cost assignment over the shared
// prediction matrix puts at most one new task per server per wave,
// re-projecting between waves (see sched.MinCostBatch).
//
// With Config.TenantShares set and the batch spanning several tenants,
// the batch instead flows through the fairness arbiter: the ledger
// decides which tenant's head task is offered to the heuristic next
// (fair-clock order supersedes both submission order and min-cost
// waves — cross-tenant sharing outranks intra-batch packing).
// Single-tenant batches always take the historical path, so one-tenant
// deployments keep their decision sequence bit-for-bit.
//
// Requests that fail individually yield a zero Decision; their errors
// are joined in the returned error, and the rest of the batch still
// commits. Requests the token bucket refuses are shed with
// ErrThrottled before any arbitration.
func (c *Core) SubmitBatch(reqs []Request) ([]Decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	live, keep, shedErrs := IntakeGate(c.bucket, reqs, c.shedLocked, "agent")
	var decs []Decision
	var err error
	switch {
	case c.ledger != nil && multiTenant(live):
		decs, err = c.submitBatchFairLocked(live)
	case c.batch != nil:
		decs, err = c.submitBatchMatchedLocked(live)
	default:
		decs, err = c.submitBatchGreedyLocked(live)
	}
	if keep == nil {
		return decs, err
	}
	if err != nil {
		shedErrs = append(shedErrs, err)
	}
	return Scatter(decs, keep, len(reqs)), errors.Join(shedErrs...)
}

// submitBatchGreedyLocked is the historical batch path: requests are
// placed one by one in submission order, each decided as Submit decides
// it. Caller holds c.mu.
func (c *Core) submitBatchGreedyLocked(reqs []Request) ([]Decision, error) {
	out := make([]Decision, len(reqs))
	var errs []error
	for i, req := range reqs {
		d, err := c.submitLocked(req)
		if err != nil {
			if errors.Is(err, ErrDeadlineUnmet) {
				c.shedLocked(req, ShedDeadline)
			}
			errs = append(errs, fmt.Errorf("agent: batch job %d: %w", req.JobID, err))
			continue
		}
		out[i] = d
	}
	return out, errors.Join(errs...)
}

// submitBatchMatchedLocked is the k-task assignment path of
// SubmitBatch: the batch scheduler proposes one wave (at most one new
// task per server) over the exhaustive predictions, the core commits it,
// and the deferred items go into the next wave against re-projected
// predictions (the HTM's memo serves the servers the wave left
// unchanged) — until the batch drains or a wave makes no progress.
// Caller holds c.mu.
func (c *Core) submitBatchMatchedLocked(reqs []Request) ([]Decision, error) {
	out := make([]Decision, len(reqs))
	var errs []error
	fail := func(pos int, err error) {
		errs = append(errs, fmt.Errorf("agent: batch job %d: %w", reqs[pos].JobID, err))
	}

	items := make([]sched.BatchItem, len(reqs))
	pending := make([]int, 0, len(reqs))
	for i, req := range reqs {
		candidates, submitted, err := c.filterRequestLocked(req)
		if err != nil {
			fail(i, err)
			continue
		}
		if err := c.admitDeadlineLocked(req, candidates); err != nil {
			c.shedLocked(req, ShedDeadline)
			fail(i, err)
			continue
		}
		items[i] = sched.BatchItem{
			JobID: req.JobID,
			Task: &task.Task{ID: req.TaskID, Spec: req.Spec, Arrival: submitted,
				Tenant: req.Tenant, Deadline: req.Deadline},
			Now:        req.Arrival,
			Candidates: candidates,
		}
		pending = append(pending, i)
	}

	// The assignment reads every candidate's prediction.
	var ev sched.Evaluator
	if c.htmMgr != nil {
		ev = c.htmMgr
	}
	ctx := &sched.Context{HTM: ev, Info: coreLoadInfo{c}, RNG: c.rng}
	for len(pending) > 0 {
		wave := make([]sched.BatchItem, len(pending))
		for k, pos := range pending {
			wave[k] = items[pos]
		}
		choices, err := c.batch.ChooseBatch(ctx, wave)
		if err != nil {
			for _, pos := range pending {
				fail(pos, err)
			}
			break
		}
		if len(choices) != len(wave) {
			// Contract violation by a user-supplied BatchScheduler:
			// fail loudly instead of silently dropping requests (short
			// result) or indexing out of range (long result).
			for _, pos := range pending {
				fail(pos, fmt.Errorf("batch scheduler %s returned %d choices for %d items",
					c.batch.Name(), len(choices), len(wave)))
			}
			break
		}
		committed, attempted := 0, 0
		var next []int
		for k, choice := range choices {
			pos := pending[k]
			if choice.Server == "" {
				next = append(next, pos)
				continue
			}
			attempted++
			if _, ok := c.beliefs[choice.Server]; !ok {
				fail(pos, fmt.Errorf("batch scheduler %s chose unregistered server %q",
					c.batch.Name(), choice.Server))
				continue
			}
			if _, ok := reqs[pos].Spec.Cost(choice.Server); !ok {
				fail(pos, fmt.Errorf("batch scheduler %s chose non-candidate %q",
					c.batch.Name(), choice.Server))
				continue
			}
			d, err := c.commitLocked(reqs[pos], choice.Server)
			if err != nil {
				fail(pos, err)
				continue
			}
			out[pos] = d
			committed++
		}
		// Termination: every wave either commits placements, consumes
		// failed attempts (their items leave pending via fail), or —
		// when nothing was even attempted — proves the remaining
		// items cannot evaluate on any candidate. A wave that only
		// failed commits leaves the deferred items in play: the next
		// wave re-solves without the failed contenders.
		if committed == 0 && attempted == 0 && len(next) > 0 {
			for _, pos := range next {
				fail(pos, errors.New("no candidate evaluable in any wave"))
			}
			break
		}
		pending = next
	}
	return out, errors.Join(errs...)
}

// submitLocked is the decision engine: one evaluation followed by one
// commit under the same lock acquisition. Caller holds c.mu.
func (c *Core) submitLocked(req Request) (Decision, error) {
	cand, err := c.evaluateLocked(req, c.eval)
	if err != nil {
		return Decision{}, err
	}
	return c.commitLocked(req, cand.Server)
}

// candidatesLocked returns the registered servers that solve spec, in
// name order: the HTM's candidate index when the core has one (its pool
// is the core's), the core's own cache otherwise. The list is shared
// and read-only, and resolved once per spec and membership, not per
// decision. Caller holds c.mu.
func (c *Core) candidatesLocked(spec *task.Spec) []string {
	if c.htmMgr != nil {
		return c.htmMgr.Candidates(spec)
	}
	if cands, ok := c.candCache[spec]; ok {
		return cands
	}
	if len(c.candCache) >= maxCachedSpecs {
		clear(c.candCache)
	}
	var cands []string
	for _, name := range c.order {
		if _, ok := spec.Cost(name); ok {
			cands = append(cands, name)
		}
	}
	c.candCache[spec] = cands
	return cands
}

// filterRequestLocked is the per-request preamble shared by the
// greedy and matched decision paths: spec validation, the candidate
// list and the submitted-date default. Both paths must agree on it, or
// matched batches and single Submits would see different candidate
// sets. Caller holds c.mu.
func (c *Core) filterRequestLocked(req Request) (candidates []string, submitted float64, err error) {
	if req.Spec == nil {
		return nil, 0, fmt.Errorf("agent: job %d has no spec", req.JobID)
	}
	candidates = c.candidatesLocked(req.Spec)
	if len(candidates) == 0 {
		return nil, 0, ErrUnschedulable
	}
	submitted = req.Submitted
	if submitted == 0 {
		submitted = req.Arrival
	}
	return candidates, submitted, nil
}

// evaluateLocked runs candidate filtering and the heuristic without
// committing anything: no HTM placement, no belief correction, no
// event. Caller holds c.mu.
func (c *Core) evaluateLocked(req Request, ev sched.Evaluator) (Candidate, error) {
	candidates, submitted, err := c.filterRequestLocked(req)
	if err != nil {
		return Candidate{}, err
	}
	// Admission runs before the heuristic, so shedding never consumes
	// decision randomness: with admission off (or no deadline) the
	// heuristic sees exactly the historical call sequence.
	if err := c.admitDeadlineLocked(req, candidates); err != nil {
		return Candidate{}, err
	}
	c.evalTask = task.Task{ID: req.TaskID, Spec: req.Spec, Arrival: submitted,
		Tenant: req.Tenant, Deadline: req.Deadline}
	predBuf := c.evalCtx.PredBuf
	c.evalCtx = sched.Context{
		Now:        req.Arrival,
		Task:       &c.evalTask,
		JobID:      req.JobID,
		Candidates: candidates,
		HTM:        ev,
		Info:       coreLoadInfo{c},
		RNG:        c.rng,
		PredBuf:    predBuf,
	}
	ctx := &c.evalCtx
	var out Candidate
	if ss, ok := c.cfg.Scheduler.(sched.ScoredScheduler); ok {
		choice, err := ss.ChooseScored(ctx)
		if err == ErrBeaten {
			return Candidate{}, err
		}
		if err != nil {
			return Candidate{}, fmt.Errorf("agent: scheduling task %d: %w", req.TaskID, err)
		}
		out = Candidate{Server: choice.Server, Score: choice.Score, Tie: choice.Tie, Scored: true}
	} else {
		server, err := c.cfg.Scheduler.Choose(ctx)
		if err != nil {
			return Candidate{}, fmt.Errorf("agent: scheduling task %d: %w", req.TaskID, err)
		}
		out = Candidate{Server: server}
	}
	// A candidate is a registered server the spec prices.
	_, registered := c.beliefs[out.Server]
	if _, priced := req.Spec.Cost(out.Server); !registered || !priced {
		return Candidate{}, fmt.Errorf("agent: scheduler %s chose non-candidate %q for task %d",
			c.cfg.Scheduler.Name(), out.Server, req.TaskID)
	}
	return out, nil
}

// commitLocked commits a decided placement: HTM commit, prediction
// tracking, the NetSolve assignment correction, bookkeeping and the
// decision event. Caller holds c.mu and has validated the server
// against the request's candidates.
func (c *Core) commitLocked(req Request, server string) (Decision, error) {
	d := Decision{JobID: req.JobID, Server: server}
	if c.htmMgr != nil {
		if err := c.htmMgr.Place(req.JobID, req.Spec, req.Arrival, server); err != nil {
			return Decision{}, fmt.Errorf("agent: HTM placement of task %d: %w", req.TaskID, err)
		}
		if p, ok := c.htmMgr.PredictedCompletion(req.JobID); ok {
			c.predictions[req.JobID] = p
			d.Predicted, d.HasPrediction = p, true
		}
	}
	// NetSolve assignment correction — only once the placement is
	// committed, so a rejected decision leaves beliefs untouched.
	c.beliefs[server].assignedSince++
	submitted := req.Submitted
	if submitted == 0 {
		submitted = req.Arrival
	}
	c.jobs[req.JobID] = jobMeta{taskID: req.TaskID, attempt: req.Attempt,
		tenant: req.Tenant, deadline: req.Deadline, submitted: submitted}
	c.tenantLoad[req.Tenant]++
	if c.ledger != nil {
		// Post-hoc charge: every committed placement advances the
		// tenant's fair clock by the nominal service it bought,
		// whichever path committed it — so arbitration stays coherent
		// across mixed Submit/SubmitBatch call patterns.
		if cost, ok := req.Spec.Cost(server); ok {
			c.ledger.Charge(tenantPath(req.Tenant), cost.Total())
		}
	}
	c.log(trace.Record{Time: req.Arrival, Kind: "schedule", Server: server,
		TaskID: req.TaskID, Attempt: req.Attempt})
	c.emit(Event{Kind: EventDecision, Time: req.Arrival, Server: server,
		JobID: req.JobID, TaskID: req.TaskID, Attempt: req.Attempt,
		Predicted: d.Predicted, HasPrediction: d.HasPrediction,
		Tenant: req.Tenant, Deadline: req.Deadline, Submitted: submitted})
	if c.relayLog != nil {
		ev := relay.Event{Kind: relay.Decision, JobID: req.JobID,
			Tenant: req.Tenant, Server: server, Time: req.Arrival}
		if c.htmMgr != nil {
			ev.Ready, ev.HasReady = c.htmMgr.ProjectedReady(server)
		}
		c.relayLog.Append(ev)
	}
	return d, nil
}

// Complete processes a completion message: the NetSolve completion
// correction, HTM re-anchoring (sync extension) and prediction
// eviction — placement-time predictions are consumed here, so the
// tracking maps stay bounded by the number of in-flight tasks.
func (c *Core) Complete(jobID int, server string, at float64) Completion {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.beliefs[server]; ok {
		b.completedSince++ // NetSolve completion correction
	}
	if c.htmMgr != nil {
		if _, placed := c.htmMgr.PlacedOn(jobID); placed {
			// Ignore sync errors for jobs the HTM no longer tracks
			// (dropped servers).
			_ = c.htmMgr.NotifyCompletion(jobID, at)
		}
	}
	meta, known := c.jobs[jobID]
	if !known {
		meta = jobMeta{taskID: jobID}
	}
	delete(c.jobs, jobID)
	delete(c.predictions, jobID)
	if known {
		if n := c.tenantLoad[meta.tenant] - 1; n > 0 {
			c.tenantLoad[meta.tenant] = n
		} else {
			delete(c.tenantLoad, meta.tenant)
		}
	}
	done := Completion{JobID: jobID, TaskID: meta.taskID, Attempt: meta.attempt,
		Server: server, Time: at}
	c.log(trace.Record{Time: at, Kind: "done", Server: server,
		TaskID: meta.taskID, Attempt: meta.attempt})
	c.emit(Event{Kind: EventCompletion, Time: at, Server: server,
		JobID: jobID, TaskID: meta.taskID, Attempt: meta.attempt,
		Tenant: meta.tenant, Deadline: meta.deadline, Submitted: meta.submitted})
	if c.relayLog != nil {
		ev := relay.Event{Kind: relay.Completion, JobID: jobID,
			Tenant: meta.tenant, Server: server, Time: at}
		if c.htmMgr != nil {
			ev.Ready, ev.HasReady = c.htmMgr.ProjectedReady(server)
		}
		c.relayLog.Append(ev)
	}
	return done
}

// Report ingests a periodic monitor report: the belief is replaced by
// the reported value and both corrections reset, as a fresh NetSolve
// load report does.
func (c *Core) Report(server string, load, at float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.beliefs[server]
	if !ok {
		return
	}
	b.reported = load
	b.assignedSince = 0
	b.completedSince = 0
	c.emit(Event{Kind: EventReport, Time: at, Server: server, TaskID: -1, Load: load})
}

// Prediction returns the HTM completion predicted when the job was
// placed. Entries are evicted on completion; after Complete the
// end-of-run projection is available through PredictedCompletion.
func (c *Core) Prediction(jobID int) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.predictions[jobID]
	return p, ok
}

// PredictedCompletion returns the HTM trace's current projection of a
// placed job's completion date (HTM heuristics only).
func (c *Core) PredictedCompletion(jobID int) (float64, bool) {
	if c.htmMgr == nil {
		return 0, false
	}
	return c.htmMgr.PredictedCompletion(jobID)
}

// FinalPredictions returns the HTM's current simulated completion date
// for every job ever placed — the "simulated completion date" column
// of the paper's Table 1, accounting for every later placement.
func (c *Core) FinalPredictions() map[int]float64 {
	out := make(map[int]float64)
	if c.htmMgr == nil {
		return out
	}
	for _, id := range c.htmMgr.Placements() {
		if p, ok := c.htmMgr.PredictedCompletion(id); ok {
			out[id] = p
		}
	}
	return out
}

// log appends to the configured trace log, if any.
func (c *Core) log(r trace.Record) {
	if c.cfg.Log != nil {
		c.cfg.Log.Add(r)
	}
}
