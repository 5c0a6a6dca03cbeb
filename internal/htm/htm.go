// Package htm implements the Historical Trace Manager of the paper
// (§2.3): the agent-side component that "stores and keeps track of
// information about each task", simulates the execution of every placed
// task on every server under the shared-resource model, and predicts
// the completion date of a candidate placement together with the
// perturbation it inflicts on already-mapped tasks.
//
// Terminology follows §2.4:
//
//	ρ_j   — simulated finishing date of task j before the new arrival
//	ρ'_j  — its finishing date after simulating the new task's placement
//	π_j   — the perturbation ρ'_j − ρ_j
//
// The HTM of the paper deliberately ignores memory requirements (that
// is listed as future work §7); construct the Manager with
// WithMemoryModel to enable the extension.
//
// # Evaluation core
//
// Candidate evaluation is the scheduler's hot path: every arriving task
// triggers one projection per candidate server, each on a copy-on-write
// clone of the server's live trace, run under the Manager lock one after
// the other. The Manager evaluates incrementally: the baseline
// projection ρ_j of each server — which full replay would recompute
// from scratch for every candidate — is cached and only recomputed when
// the server's live trace actually changes (a placement, a
// synchronization re-anchor, a drop). Advancing the trace clock does
// not invalidate the cache: the clock moves a trace through its own
// events only, each at its own date (see "Trace clock"), which is the
// very sequence of operations a projection of the trace performs, so the
// projected completion dates are not merely points on the same fluid
// trajectory but the same bits wherever along it the projection starts.
// EvaluateFull keeps the original full-replay
// algorithm as a reference: predictions from the two paths agree within
// floating-point accumulation error (see the equivalence test).
//
// Nor does a placement refresh its trace's baseline when the last pruned
// pass projected it. The pass keeps, under the Manager lock, what it
// projected for each candidate still within tie of its incumbent (the
// stash): for a busy trace the clone it ran to idle, with the trace and
// its generation; for an idle class the class key and the new job's
// completion date. A Minimizer heuristic places on one of those, and
// Place installs the matching entry as the placed trace's baseline. A
// busy trace matches its own entry at its current generation; an idle
// trace matches the entry of its class, since it holds no live job and
// every idle trace of the class projects the same bits (see "Pruning");
// and either needs the placement's spec pointer, job id and clamped
// arrival. The entry is then the projection a refresh after the
// placement would run: the same live jobs, the candidate added at the
// same release, the same run to idle. So it installs the same bits, and
// the commit's PredictedCompletion, the ProjectedReady the relay reports
// and the next projection of the placed server read it without
// projecting again (TestInstalledBaselineSameBits holds every install of
// churned runs against a refresh). The stash keeps completion dates and
// never perturbations: once a newcomer more than doubles a date, ρ+π is
// not ρ' in floating point (TestInstalledBaselineStoresDates). Anything
// else misses, and the placed trace's baseline is refreshed at its next
// read: a placement the pass did not
// project, a trace re-anchored since (which bumps its generation), a
// later arrival, the exhaustive pass, a busy winner the memo served
// (below: a memo slot holds no clone). The stash is emptied at every
// pass, Place and DropServer, and by the Sim read that moves a trace, so
// it holds one pass's tie set at most: bounded by construction, like the
// candidate index and the retention lists. EvalStats.Refreshes counts the
// baseline projections run, about none per steady HMCT or MSF decision.
//
// The memo. A burst of arrivals at one date (SubmitBatch, or a caller
// that evaluates before it submits) asks for the same projections again
// and again: between two members only the trace the first was placed on
// has changed. So each entry of the candidate index keeps its last
// successful projection with the Manager epoch, trace generation and
// clamped arrival it was taken at (memoSlot), and both passes, the
// pruned one and the exhaustive one, return it instead of projecting
// when all three still match; EvalStats.Reused counts them. That is
// exact: a projection is a deterministic function of the trace's live
// state, the cost and footprint of the spec on the server, the memory
// model and the clamped arrival, and not of the new job's id nor of any
// other trace. The spec is the index's, the generation moves with every
// placement and re-anchor on the trace, and the arrival must be equal.
// What moves a trace without a generation bumps the epoch, which voids
// every slot at once: Sim, when it brings a trace up, and a re-anchor
// that fails, since moving the trace to the completion date may have
// collapsed it. A DropServer or AddServer drops every index and every
// slot with it. The id enters in one way, an error: adding an id that is
// live on the trace fails, so a pass for a job already placed reads no
// memo. A failed projection is never memoised. A pass reads the memo only
// if a slot was written at its arrival (specIndex.memoAt), so a decision
// dated apart from the last pays a store per projection and no read. A
// candidate list resolved by name reads the same slots, found by pool
// position, so the k-task assignment's per-pair probes (sched.MinCostBatch)
// read what its first pass of the wave projected. The memo is bounded by
// the index: one slot per spec and solvable server, a few words each, no
// clone. TestMemoSameBits and FuzzMemoSameBits hold every prediction of
// churned runs of bursts against a fresh projection.
//
// # Pruning
//
// A heuristic that takes the argmin of one objective over the
// predictions reads only the candidates within its tie tolerance of the
// minimum. Manager.Minimizing(objective, tie) returns the evaluation
// surface for such a heuristic (Minimizer): under one lock acquisition
// it computes a lower bound of the objective for the candidates and
// projects one only if its bound does not strictly exceed incumbent +
// tie, the incumbent being the least objective projected so far (+Inf
// before the first). Only projected candidates are snapshotted. The
// contract is that the result holds, in server-name order and
// bit-identical to the exhaustive predictions, every candidate whose
// objective is within tie of the minimum, or an earlier-named candidate
// whose prediction has the same bits: the true minimiser is never pruned
// (its bound is at most its objective, which is at most any incumbent),
// so the minimum over the result is the true minimum, and a candidate
// within tie of it has a bound within tie of every incumbent. Which
// candidates beyond those are returned depends on the order of projection
// and is not part of the contract. The heuristics that declare an
// objective (HMCT, MSF) take the first in name order among equal values,
// so a later-named candidate of the same bits is never their choice, and
// their scores, tie-breaks and placements are therefore unchanged.
//
// The ceiling. A caller that already holds a candidate of score c from
// another partition of the pool (a sharded fan-out evaluating its shards
// in order) asks Minimizer.Below(c): the pass starts with an incumbent of
// c + tie instead of +Inf, so its reach, incumbent + tie, is at most
// c + 2·tie from the start, and it answers ErrBeaten, with no
// prediction, when its least projected objective exceeds c + tie. Let m
// be the least objective among the candidates. If m ≤ c + tie, the
// minimiser's bound is within reach, so it is projected, the incumbent
// never falls below m, and every candidate within tie of m has a bound
// within tie of every incumbent: the contract above holds, and the
// answer is the plain pass's. If m > c + tie, every projection exceeds
// c + tie and the answer is ErrBeaten; no candidate here scores within
// tie of c, so none can pass the caller's under a tie-tolerant
// comparison (cluster.BetterCandidate). One tie of reach would not be
// enough: the heuristic's winner is its tie-break among the candidates
// within tie of m, so it may sit up to 2·tie above c, and that
// comparison is not transitive within tie, so such a winner can still
// pass the caller's candidate. A candidate whose projection failed
// passes nothing. TestMinimizerBelowContract checks both answers on
// generated traces, at the heuristics' tie and at one large enough that
// the bound's slack does not hide the reach. EvalStats.Beaten counts the
// ErrBeaten answers. A ceiling means nothing to NoObjective.
//
// The pass costs O(idle classes + busy traces it visits), not O(pool).
// The idle candidates are never visited one by one: the candidate index
// groups a spec's entries into classes by everything the projection of
// an empty trace reads beside the arrival and the spec — the cost triple
// and the trace's memory configuration (RAM, swap, thrash model) — and a
// class with an idle member (the index keeps, per class, its first member
// by name not in Manager.busy, as traces join and leave it) is bounded
// once, over no live job, and if it must be looked at projected once, on
// that member, whose prediction answers for the class: every other idle
// member is later-named and would project the same bits, which is all the
// contract asks. That is exact without a closed form for the
// idle completion date: fluid is deterministic, and each member would be
// handed the same arrival, cost and footprint, the same memory model and
// the same empty live set (an idle trace's clock trails the trace time,
// differently for each, but the candidate is released at the arrival and
// nothing is served before that), so it would compute the same bits.
// Classes are taken in order of idle flow I+w+O and before the busy
// traces: an idle projection is the cheapest there is and lands on its
// bound, so it makes the tightest incumbent for its price.
//
// The busy traces (Manager.busy, see "Trace clock") are visited in order
// of their key, the CPU-free date K (below), and a visited candidate is
// bounded from its live jobs, read in place as they stood at the trace's
// own clock less the work served since. Under MinCompletion the visit
// stops at the first trace whose key alone puts every trace from there on
// out of reach, and a visited candidate whose key alone puts it out of
// reach is not read further; under MinSumFlow every busy trace is
// visited, and one with no memory model and at most one live job whose
// key alone puts it out of reach is not read further. Of the visited
// candidates the bound does not rule out, the one
// of least bound is projected first and the others after it, each unless
// the incumbent has come within its bound: in name order under
// MinCompletion (the key order projected 5% more at 4096 servers), and in
// the order visited under MinSumFlow, which keeps many busy candidates
// under load and would pay for sorting them. What is bounded one by
// one: a busy trace even if it holds no live job (emptied by a re-anchor
// since the last advance, collapsed under the memory model, or with a
// fluid clock that the last event left within fluid's time tolerance
// ahead of the trace time — a job added there is released at that clock,
// not at its arrival), and every candidate of a list resolved by name. On
// a lightly loaded pool a MinCompletion decision projects a class or two
// and a few busy candidates and visits the few busy traces whose CPU
// frees before the best idle class could finish; as load rises the bounds
// separate less and the pass degrades toward the exhaustive one.
// EvalStats counts candidates, projections run, idle candidates answered
// for by their class's representative (Replicated) and candidates read one
// by one (Bounded). The projections of the candidates still within tie of
// the incumbent when the pass ends are stashed for the Place that follows
// (see "Evaluation core"): a busy trace's under its generation, an idle
// class's under its key, which is what lets any idle member of the class
// install it.
//
// The bound. Let the new job cost (I, w, O) on the server and arrive at
// a, let r_i be the remaining compute of each job computing at a (what
// the job had left at the trace's clock c, less (a - c) times its rate
// since: no event of the trace lies between c and a), and
//
//	F = max(I + w + O, w + O + Σ_i min(r_i, w)).
//
// The new job's flow is at least F. Each phase takes at least its
// nominal time, which is the first term. For the second: a job
// computing at a stays on the CPU until it has received r_i; whenever
// it shares the CPU with the new job both progress at the same rate,
// so by the instant T the new job's compute ends it has received at
// least min(r_i, w); the CPU delivers at most one second of work per
// second (thrashing only lowers that), so T - a ≥ w + Σ_i min(r_i, w),
// and the output phase follows. A projected collapse yields +Inf,
// above any bound.
//
//   - MinCompletion (HMCT): completion ≥ a + F, always.
//   - MinSumFlow (MSF): the objective is flow + Σ_j π_j, and π_j can be
//     negative: the model is three processor-sharing stations in
//     series, and a job the newcomer delays at one station reaches the
//     next one later, to the benefit of whoever it would have shared
//     that station with (TestPruneBoundOutputLink: flow 10, Σπ = -5,
//     F = 10). The bound is F - (k-1)·Σ_j o_j, with o_j the remaining
//     output work of the k live jobs that still have some, and it is
//     claimed only when (1) the newcomer delays nobody on the input
//     link (I = 0, or no live job has input left), so every placed job
//     reaches the CPU when it would have, and (2) the server's RAM
//     holds every live footprint plus the newcomer's, so the thrash
//     factor stays 1. Under (1) the CPU is one processor-sharing
//     station with unchanged arrivals plus one more job, which delays
//     every departure or leaves it (induction over events: no job's
//     attained service can overtake its baseline value while the set
//     present contains the baseline's). On the output link a job
//     finishes no sooner than its arrival plus o_j, and in the baseline
//     no later than its arrival plus o_j + Σ_{l≠j} min(o_l, o_j), since
//     while two jobs share the link they are served at the same rate;
//     its arrival is not earlier, so π_j ≥ -Σ_{l≠j} min(o_l, o_j) and
//     Σ_j π_j ≥ -(k-1)·Σ_j o_j. Where (1) or (2) fails nothing is
//     claimed and the candidate is always projected; with output costs
//     small beside compute costs, the usual case, the correction is
//     small.
//
// One live job. Under MinSumFlow a trace whose one live job j leaves
// the newcomer no third party has a tighter bound, claimed when the RAM
// holds both footprints (or memory is not modelled): the newcomer's
// nominal flow plus twice the delay d that the two impose on each other
// where they meet. With i', r' and o' what j has left at a of its input,
// compute and output, and r its full compute:
//
//	computing:        d = min((r' - I)⁺, w)
//	sending output:   d = min((o' - I - w)⁺, O)
//	receiving input:  d = i' + min((r - I + i')⁺, w)   if i' ≤ I
//	                  d = I + min((w - i' + I)⁺, r)    otherwise
//	waiting:          d = 0
//
//	flow + π_j ≥ I + w + O + 2d.
//
// With one competitor and a thrash factor of 1, each job's rate at each
// station is at most its rate alone, so no phase of either job ends
// earlier than it would alone, which is j's baseline. Up to the first
// station they share the two use different stations at full rate, so
// each reaches it on its solo schedule; let m be the lesser of what the
// earlier has left there when the later arrives and the later's own work
// there (a min term above). Processor sharing then serves both at the
// same rate until one leaves, after 2m seconds, so each ends that phase
// at least m later than alone, and every later phase no earlier than
// alone plus m. A job receiving its input meets the newcomer on the link
// (m = min(i', I)) and again on the CPU, at dates those delays set, and
// d sums the two. So the newcomer's flow is at least I + w + O + d and
// π_j ≥ d. The bound is never below F's: where j computes,
// I + 2·min((r' - I)⁺, w) ≥ min(r', w), and elsewhere F = I + w + O;
// lowerBound takes the greater of the two, each less its slack at one
// live job. TestSoloSumFlowBoundTight pins each case where it is exact.
//
// A slack of (n+2)²·(8e-9 + 4e-15·(a+F)), n the live jobs, is taken off
// every bound: fluid ends a phase once under 1e-9 s of work remains,
// which moves later events by as much, event dates carry rounding, and
// a sum of n perturbations accumulates O(n²) of either.
// TestPruneBoundProperty and FuzzPruneBound check key bound ≤ bound ≤
// objective and the contract on generated traces (all job states, both
// memory modes, re-anchors, drops).
//
// The key. A busy trace's key is its CPU-free date K = c + Σ_i r_i(c):
// its own clock c plus the compute left at c by the jobs computing there
// (not the waiting ones, nor those still in their input phase: they may
// reach the CPU after the newcomer's compute is through). It is a date
// that no spec enters, so one order serves every spec, and keyLocked
// records it with the next event. Let the newcomer arrive at a, with no
// event of the trace between c and a; its clock may stand up to
// fluid.TimeEps after a. The jobs computing at a are those computing at
// c, and together they were served at most a - c seconds of CPU since:
// the CPU delivers at most one second of work per second, the premise of
// the bound. So a + Σ_i r_i(a) ≥ K - TimeEps. With Σ_i min(r_i, w) ≥
// min(Σ_i r_i, w) that gives
//
//	a + F ≥ X = max(a + I + w + O, w + O + min(K - TimeEps, a + w)),
//
// and since the bound, a + F less its slack, rises with a + F and falls
// with n, it is at least X - (n+2)²·(8e-9 + 4e-15·|X|). keyBound takes
// the slack at n+1 live jobs, which leaves (2n+5)·(8e-9 + 4e-15·|X|) for
// the rounding of K's own sum. keyBound rises with K and with each of I,
// w and O, and falls with n. The pass reads it twice per busy trace: at
// the trace's own cost and live count, and as stopBound, at the index's
// least cost of each phase and the largest live count of a busy trace
// (Manager.maxLive, exact after every advance and raised by every re-key
// in between). If stopBound at a trace's K exceeds incumbent + tie, so
// does every trace's own keyBound from there on — a larger K, a cost at
// least the least, no more live jobs — and so does its bound: the visit
// stops. The slack is the largest live count's and not each trace's own,
// because the (a + w) branch and the relative term depend on the spec,
// so no per-trace date could carry them. The key bound is checked against
// the bound, and the stop against the contract, on generated traces by
// the same property test and fuzzer, and at 1024 servers by
// TestPrunedPassLargePool.
//
// MinSumFlow's Σπ correction is not a function of K, so its pass visits
// every busy trace and cannot stop. But a trace with no memory model and
// at most one live job is not read further when
//
//	X_Σ = I + w + O + 2·min((K - TimeEps - a - I)⁺, w),
//
// less the slack at s = 4 (sumFlowKeyBound), exceeds incumbent + tie. A
// lone job computing at a has r' ≥ K - TimeEps - a, as above, and the
// one-job bound rises with r'; any other such trace (one job not
// computing, or none) has K = c ≤ a + TimeEps, so the key term is 0 and
// X_Σ = I + w + O, which its bound is not below. The slack leaves
// 7·(8e-9 + 4e-15·(a + X_Σ)) for the rounding of K's sum. The key bound
// holds under thrash too: the newcomer's input still ends at a + I, and
// while the two compute each is served at most half of what it gets alone,
// so each still ends at least min((r' - I)⁺, w) later than alone. The
// pass keeps the memory guard all the same, so that what it skips is
// what the bound it would read rules out (that bound claims nothing under
// memory pressure); checkPruneCase holds sumFlowKeyBound against
// lowerBound without a memory model and against the projected objective
// with one.
//
// Not pruned, and why: MP and MNI (an idle server has objective 0, so
// no positive bound separates candidates; their tie-break needs the
// completion of every zero-perturbation server), the baselines (they
// read ready times or a subset), Evaluate/EvaluateFull (one candidate),
// and SubmitBatch's k-task assignment (it reads every prediction of the
// wave). The pruned pass is sequential, since each projection decides
// whether the next is needed. A
// stale baseline is refreshed only for a candidate the pass projects. A
// busy trace it skips refreshes later, at its first projection or read,
// from a later event of its own clock, and gets the same bits: the clock
// and a projection take the trace through the same events at the same
// dates (see "Trace clock"), so cached projections and ready times stay
// bit-identical to a pass that refreshed every busy baseline
// (TestSkippedBaselinesSameBits). Idle traces need no refresh, by the
// baseline-on-drain rule: a trace leaves the clock walk with an empty
// baseline installed, which is what any later refresh would compute
// until the next placement, so its ready time is the trace time and
// PredictedCompletion reads its finished jobs from the trace itself. An
// evaluation error on a candidate that was pruned is never observed.
//
// # Candidate index
//
// Which servers solve a task type, at what cost, on which trace, changes
// only when a server joins or leaves, so the Manager resolves each
// *task.Spec against its sorted pool once per membership instead of
// hashing every server name into the spec's cost table and the trace
// map on every decision. The result (specIndex) is the solvable server
// names in name order with, at the same positions, their traces and
// costs, the map from a pool position to the entry (how a walked trace
// finds its candidate), and the idle classes of "Pruning": built with
// the index, in one pass over the pool, and dropped with it. Candidates
// hands out the names; when the EvaluateAll family or
// MeetsDeadline gets that very slice back (same backing array and
// length, index still cached) the pass reads the entries and looks no
// name up. Any other list (a subset, a shuffle, a copy, names the pool
// does not track) is resolved name by name into scratch entries of the
// same shape and goes through the same pass, with the errors the names
// call for; EvalStats.NameLookups counts those. agent.Core takes its
// candidate lists from Candidates, so a deployment's decisions resolve
// names only for the heuristics that hand the HTM a subset (KPB,
// MemoryAware).
//
// The cache is keyed by spec pointer, which the registry, the workload
// generators and the wire decoding share per task type, and is bounded
// by construction: at most maxIndexedSpecs indexes, each a few words per
// solvable server (entry, pool slot, class, class member, memo slot) and
// per class (its busy count and first idle member), all dropped
// when a further spec arrives and whenever AddServer or DropServer
// changes the pool. It is state per task type, never per task; a client that mints
// a spec per task only pays a rebuild per decision (about what the
// per-decision filtering used to cost; EvalStats.IndexBuilds shows it).
// An index copies the costs, hence the contract stated on task.Spec: a
// spec handed to a scheduler is not modified afterwards.
//
// # Trace clock
//
// A server's fluid state changes only at that server's own events (the
// release of a job placed on it, the end of a phase), so a trace is
// stepped at its own events and not at every arrival. Each trace that
// may hold a live job (Manager.busy) carries the date of its next event
// and the progress rates that hold until then (serverTrace.next and
// rates, from fluid.Sim.Pace), and its key: the CPU-free date of
// "Pruning", with its live count. Manager.busy is kept in key order,
// ties by pool position, not in name order: the pruned pass visits it
// from the front and stops at the first key out of reach. Advancing the
// trace time to t compares next with t for every busy trace, about a
// nanosecond each, and steps only the traces with an event due by
// fluid's own criterion (next <= t + fluid.TimeEps): through the due
// events, each applied at its own date, and no further. A stepped trace
// is left at its last event, not at t, so the instants at which the
// Manager was asked something leave no mark on it; the traces not
// stepped keep their order, and the stepped ones, re-keyed, go back in at
// their places (a binary search and a move of the pointers behind). Any
// other re-key (Place, a re-anchor, Sim) moves its trace the same way.
// EvalStats.Stepped counts the traces stepped: a few per decision
// whatever the pool and its load.
//
// What moves a busy trace's sim is therefore: its own due events, a
// re-anchor (NotifyCompletion's ForceComplete, which moves it to the
// completion instant), and Sim, the materialising read of end-of-run
// rendering, which brings the trace it hands out to the trace time. Place
// adds the job with its release date and moves nothing; each of the four
// is followed by keyLocked, which records the next event, the rates and
// the key anew. No other read steps a trace. A projection or a baseline refresh
// clones the trace as it stands, at its own clock c <= the trace time,
// and the clone crosses the gap itself: the candidate is added with
// release date a and the run to idle starts with the step from c to a,
// at the rates that held all along. The pruning bound reads the live
// jobs in place and takes (a - c) * rate off what each had left in its
// current phase. That rule is what makes the clock exact and not
// approximate: a trace's bits depend on the jobs placed on it and their
// dates, never on which candidates an earlier decision happened to
// project or on when anything was read, so the pruned pass still returns
// bits of the exhaustive one (TestReadsDoNotStepTraces; the fluid side is
// TestSplitInvariance). Against a Manager that steps every trace to
// every arrival, as this one did before, the work of a phase is consumed
// in one piece per event instead of one per arrival, so dates differ in
// their last bits and no more (TestLazyClockMatchesWalk, 1e-12
// relative).
//
// A trace joins the walk when a job is placed on it and leaves it at the
// first advance that finds it drained, not collapsed and not ahead of
// the trace time, with an empty baseline (see "Pruning"). Two kinds of
// trace stay in the walk without a live job. A collapsed trace has no
// next event and is never stepped again; it stays so that it is
// evaluated on its own and raises the error it must. A trace whose last
// event fell within fluid's time tolerance after the advance that
// reached it stands ahead of the trace time; like every drained trace it
// is keyed at its own clock, so the next advance comes by and evicts it
// once the trace time has passed that clock. An idle trace's fluid clock
// is left behind for good, which is exact because nothing is served on a
// trace without live jobs; only Sim brings it up. The ready aggregates
// (MinProjectedReady, ProjectedReadyAll) answer the trace time for an
// idle trace without reading it.
//
// Retention pruning (WithRetention) reads no clock and visits only the
// traces that hold the record of a done or failed job
// (Manager.finished): keyLocked lists a trace when it first holds one,
// the pruning pass drops it when its last record is gone and DropServer
// when the server leaves, so the list is bounded by the pool and a pass
// costs the traces with something to forget, not a call per server
// (TestRetentionVisitsOnlyFinishedTraces holds it against the whole-pool
// walk). So an arrival on a large pool pays for the traces with an
// event due and the candidates it bounds and projects, not for a tick
// per busy server.
//
// The Manager is safe for concurrent use.
package htm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"casched/internal/fluid"
	"casched/internal/platform"
	"casched/internal/task"
)

// interferenceEps is the completion-delay threshold above which a task
// is counted as "interfered with" (used by the MNI heuristic).
const interferenceEps = 1e-6

// Option configures a Manager.
type Option func(*Manager)

// WithMemoryModel makes the HTM's internal simulations account for
// server memory (thrashing and collapse), using the Table 2 capacities.
// This is the paper's §7 "incorporate memory requirements into the
// model" extension; the paper's own HTM runs without it.
func WithMemoryModel() Option {
	return func(m *Manager) { m.memoryModel = true }
}

// WithSync makes the Manager re-anchor its traces on actual completion
// notifications (NotifyCompletion), the paper's §7 "improve the
// synchronization between the HTM and the execution" extension.
func WithSync() Option {
	return func(m *Manager) { m.sync = true }
}

// WithRetention bounds the trace history: records of jobs that
// finished more than window seconds before the current trace time are
// pruned as the trace advances. Predictions are unchanged by pruning —
// a projection depends only on the live jobs, and pruning never
// touches a live job — but Table 1-style retrospection (Placements,
// PredictedCompletion) forgets pruned jobs, which is the price of a
// months-long deployment keeping bounded memory. Zero or negative
// keeps the paper's unbounded behavior.
func WithRetention(window float64) Option {
	return func(m *Manager) { m.retention = window }
}

// Prediction is the HTM's answer for one candidate placement.
type Prediction struct {
	// Server is the candidate server.
	Server string
	// Completion is ρ'_{n+1}: the predicted completion date of the new
	// task if placed on Server.
	Completion float64
	// Flow is Completion minus the task's arrival date.
	Flow float64
	// Perturbation is Σ_j π_j over the tasks already placed on Server.
	Perturbation float64
	// Interfered is the number of already-placed tasks whose predicted
	// completion is delayed by more than a tolerance (for MNI).
	Interfered int
	// PerTask maps still-running job ids to their individual
	// perturbation π_j (tasks already finished in the trace have π = 0
	// and are omitted). Populated by Evaluate and EvaluateFull; nil in
	// EvaluateAll results, where no heuristic consumes it.
	PerTask map[int]float64
}

// SumFlowObjective is the quantity the MSF heuristic minimizes:
// the new task's flow plus the total perturbation (§4.3).
func (p Prediction) SumFlowObjective() float64 { return p.Flow + p.Perturbation }

// placement records where a job was placed.
type placement struct {
	server  string
	arrival float64
}

// serverTrace is the Manager's per-server state: the live fluid
// simulation plus the cached baseline projection.
type serverTrace struct {
	sim *fluid.Sim
	// gen counts trajectory-changing mutations of sim (placements,
	// re-anchors). Advancing the clock is not a mutation: it moves
	// along the projected trajectory without changing it.
	gen uint64
	// baseline caches the projected completion date ρ_j of every job
	// that was live when the projection ran; baselineGen is the gen it
	// was computed at.
	baseline    *baselineSet
	baselineGen uint64
	// drain memoizes max over baseline of ρ_j (0 for an empty
	// baseline), maintained by setBaseline so the ProjectedReady
	// family reads O(1) instead of rescanning the map — that scan is
	// the routing hot path of a sharded dispatch layer.
	drain float64
	// mem is the sim's memory configuration (zero when memory is not
	// modelled for this server): the pruning bound reads its RAM to tell
	// whether a placement can put the server under memory pressure, and
	// it is the trace's half of the idle-class key.
	mem memConfig
	// pos is the trace's position in Manager.ordered, renumbered when a
	// server joins or leaves.
	pos int32
	// busy marks membership of Manager.busy, the traces the clock walks.
	busy bool
	// next is the date of the sim's next event and rates the progress of
	// a job in each phase until then (fluid.Sim.Pace), kept by keyLocked
	// while the trace is in the walk: the clock steps the sim once next is
	// due, and the pruning bound takes the work served since the sim's own
	// clock off what its jobs had left there. A drained trace is keyed at
	// its own clock, so the next advance comes by to evict it.
	next  float64
	rates [task.NumPhases]float64
	// key is the trace's CPU-free date, its own clock plus the compute
	// left there by the jobs computing, and live the number of its live
	// jobs, both kept by keyLocked with next: Manager.busy is in key
	// order, and the pruned pass stops at the first key that cannot win
	// (see "Pruning").
	key  float64
	live int32
	// finished marks membership of Manager.finished.
	finished bool
}

// memConfig is a fluid.Config without the name: what the fluid model of
// a server reads beside its jobs.
type memConfig struct {
	ramMB, swapMB, thrashAlpha float64
	thrash                     bool
}

// baselineSet is a pooled baseline projection, owned by the trace cache
// and read under the Manager lock. The map is recycled (cleared, buckets
// kept) when the cache replaces it, which is what keeps steady-state
// baseline refreshes from allocating.
type baselineSet struct {
	m map[int]float64
}

var baselinePool = sync.Pool{New: func() any { return &baselineSet{m: make(map[int]float64)} }}

// newBaselineSet returns an empty set from the pool.
func newBaselineSet() *baselineSet { return baselinePool.Get().(*baselineSet) }

// release hands the set back to the pool.
func (b *baselineSet) release() {
	clear(b.m)
	baselinePool.Put(b)
}

// simPool recycles projection clones across decisions; a pooled clone
// owns a job slab (fluid.CloneLiveInto), so once the pool is warm,
// snapshotting and projecting a candidate does not touch the heap.
var simPool = sync.Pool{New: func() any { return new(fluid.Sim) }}

func getSim() *fluid.Sim  { return simPool.Get().(*fluid.Sim) }
func putSim(s *fluid.Sim) { simPool.Put(s) }

// setBaseline installs a freshly computed baseline projection and its
// drain memo, taking ownership of it and releasing the previous one.
func (tr *serverTrace) setBaseline(baseline *baselineSet, gen uint64) {
	if tr.baseline != nil {
		tr.baseline.release()
	}
	tr.baseline = baseline
	tr.baselineGen = gen
	tr.drain = 0
	for _, c := range baseline.m {
		if c > tr.drain {
			tr.drain = c
		}
	}
}

// invalidate marks the trace's trajectory as changed.
func (tr *serverTrace) invalidate() { tr.gen++ }

// Manager is the Historical Trace Manager. It is safe for concurrent
// use: candidate evaluations may race placements and completion
// notifications, each decision observing a consistent trace snapshot.
type Manager struct {
	mu     sync.RWMutex
	traces map[string]*serverTrace
	// order holds the tracked server names sorted; ordered holds their
	// traces at the same indices, so whole-pool walks (index builds, the
	// ready snapshot) cost no map lookup per server.
	order      []string
	ordered    []*serverTrace
	placements map[int]placement
	now        float64
	// busy holds, in order of (key, pos), the traces that may have a live
	// job, the only ones the trace clock looks at and the pruned pass
	// bounds one by one, each standing at its own last event; every other
	// trace is idle, its baseline empty or stale, its fluid clock left
	// where it drained (see "Trace clock"). maxLive is at least the live
	// jobs of every trace in it: exact after each advance, raised by every
	// re-key in between. restep is advanceLocked's scratch for the traces
	// it stepped.
	busy    []*serverTrace
	maxLive int32
	restep  []*serverTrace
	// finished holds, in no order, the traces that hold the record of a
	// done or failed job, the only ones retention pruning visits.
	finished []*serverTrace
	// index caches each spec resolved against the current pool (see
	// "Candidate index"): at most maxIndexedSpecs entries, dropped
	// wholesale when full and whenever a server joins or leaves.
	index map[*task.Spec]*specIndex
	// stash holds what the last pruned pass projected for the candidates
	// within tie of its minimum, for the Place that commits one of them
	// (see "Evaluation core"): emptied at every pass, Place and DropServer.
	stash passStash

	// epoch is what a memo slot must have been taken at to be read (see
	// "Evaluation core"): Sim, when it moves a trace, and a re-anchor that
	// fails bump it, since no generation records the move. It starts at 1,
	// so a zero slot is empty.
	epoch uint64

	memoryModel bool
	sync        bool

	// retention is the completed-record window (WithRetention);
	// lastPrune is the trace time of the last pruning pass, and
	// pruneScratch the reusable removed-id buffer pruning fills.
	retention    float64
	lastPrune    float64
	pruneScratch []int

	// considered and projected count, over every EvaluateAll-family
	// call, the solvable candidates offered and the candidates actually
	// projected; their ratio is the share pruning skipped (EvalStats).
	considered atomic.Uint64
	projected  atomic.Uint64
	// replicated counts the idle candidates the pruned pass let their
	// class's representative answer for instead of projecting them.
	replicated atomic.Uint64
	// stepped counts the traces the clock stepped through due events;
	// bounded the busy traces the pruned pass visited.
	stepped atomic.Uint64
	bounded atomic.Uint64
	// nameLookups counts the candidates of those calls that were resolved
	// by server name instead of through the index; indexBuilds the index
	// builds.
	nameLookups atomic.Uint64
	indexBuilds atomic.Uint64
	// refreshes counts the baseline projections run; beaten the pruned
	// passes that answered ErrBeaten under a ceiling.
	refreshes atomic.Uint64
	beaten    atomic.Uint64
	// reused counts the predictions served from a memo slot.
	reused atomic.Uint64
}

// New constructs a Manager tracking the given servers. Unknown server
// names are allowed (capacities then default to unlimited memory) so
// that synthetic testbeds can be simulated; names present in
// platform.Testbed pick up their Table 2 memory capacities when the
// memory model is enabled.
func New(servers []string, opts ...Option) *Manager {
	m := &Manager{
		traces:     make(map[string]*serverTrace, len(servers)),
		placements: make(map[int]placement),
		index:      make(map[*task.Spec]*specIndex),
		epoch:      1,
	}
	for _, o := range opts {
		o(m)
	}
	for _, name := range servers {
		m.addServerLocked(name)
	}
	return m
}

// AddServer starts tracking a server that joined after construction:
// its fresh trace is anchored at the current trace time. Idempotent by
// name. This is the membership-growth half of the trace lifecycle;
// DropServer is the other.
func (m *Manager) AddServer(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addServerLocked(name)
}

// addServerLocked creates the trace for one server. Caller holds m.mu
// (or is the constructor).
func (m *Manager) addServerLocked(name string) {
	if _, ok := m.traces[name]; ok {
		return
	}
	cfg := fluid.Config{Name: name}
	if m.memoryModel {
		if mach, err := platform.Get(name); err == nil {
			cfg.RAMMB = mach.MemoryMB
			cfg.SwapMB = mach.SwapMB
			cfg.Thrash = true
		}
	}
	tr := &serverTrace{sim: fluid.New(cfg), mem: memConfig{cfg.RAMMB, cfg.SwapMB, cfg.ThrashAlpha, cfg.Thrash}}
	tr.sim.AdvanceTo(m.now)
	m.traces[name] = tr
	i := sort.SearchStrings(m.order, name)
	m.order = slices.Insert(m.order, i, name)
	m.ordered = slices.Insert(m.ordered, i, tr)
	m.renumberLocked(i)
	clear(m.index)
}

// renumberLocked restores serverTrace.pos from position i on, after an
// insertion or a deletion there.
func (m *Manager) renumberLocked(i int) {
	for ; i < len(m.ordered); i++ {
		m.ordered[i].pos = int32(i)
	}
}

// Placements returns the ids of every job ever placed, in ascending
// order — the record backing Table 1's "simulated completion date"
// column (pair with PredictedCompletion).
func (m *Manager) Placements() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]int, 0, len(m.placements))
	for id := range m.placements {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Servers returns the tracked server names in sorted order.
func (m *Manager) Servers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.order...)
}

// Now returns the trace time.
func (m *Manager) Now() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.now
}

// EvalStats are the Manager's monotone evaluation counters.
type EvalStats struct {
	// Candidates counts the solvable candidates offered to the
	// EvaluateAll family; Projections those that were projected. The
	// difference is what pruning skipped or served from an idle class.
	Candidates, Projections uint64
	// Replicated counts the idle candidates answered for by their class's
	// representative, the first idle member by name, whose one prediction
	// stands for them all (see "Pruning"); they are neither in Projections
	// nor in the result.
	Replicated uint64
	// Stepped counts the traces the trace clock stepped: one for each
	// advance of the trace time that found an event of the trace due (see
	// "Trace clock"). A decision steps the traces placed on or finishing
	// a phase since the last one, not the busy ones.
	Stepped uint64
	// Bounded counts the candidates the pruned pass read one by one: the
	// busy traces it visited in key order before it stopped (every busy
	// trace under MinSumFlow), or each candidate of a list resolved by
	// name (see "Pruning"). On a lightly loaded pool a MinCompletion
	// decision visits a few whatever the pool and its busy share.
	Bounded uint64
	// NameLookups counts the candidates those passes (and the admission
	// test) had to resolve by server name: lists other than the one
	// Manager.Candidates hands out. A deployment whose decisions go
	// through agent.Core adds none outside KPB and MemoryAware subsets.
	NameLookups uint64
	// IndexBuilds counts candidate-index builds: one per spec and pool
	// membership, more only when more specs are in use at once than the
	// index caches (32) or clients mint a spec per task.
	IndexBuilds uint64
	// Refreshes counts the baseline projections run: a trace's ρ_j
	// recomputed because it changed since its baseline was taken. A
	// placement the last pruned pass projected installs that projection
	// as the baseline instead (see "Evaluation core"), so a steady
	// HMCT or MSF decision refreshes almost none.
	Refreshes uint64
	// Beaten counts the pruned passes run below a ceiling (Minimizer.Below)
	// that answered ErrBeaten: nothing they could find would pass the
	// candidate the ceiling came from. A sharded decision asks each shard
	// after the first below the best score found so far (see "Pruning").
	Beaten uint64
	// Reused counts the predictions served from the memo instead of
	// projected: a candidate whose trace has not changed since its last
	// projection for the same spec at the same arrival, the later members
	// of a same-date burst (see "Evaluation core"). They are not in
	// Projections. About none per decision when every arrival is dated
	// apart.
	Reused uint64
}

// EvalStats returns the evaluation counters.
func (m *Manager) EvalStats() EvalStats {
	return EvalStats{
		Candidates:  m.considered.Load(),
		Projections: m.projected.Load(),
		Replicated:  m.replicated.Load(),
		Stepped:     m.stepped.Load(),
		Bounded:     m.bounded.Load(),
		NameLookups: m.nameLookups.Load(),
		IndexBuilds: m.indexBuilds.Load(),
		Refreshes:   m.refreshes.Load(),
		Beaten:      m.beaten.Load(),
		Reused:      m.reused.Load(),
	}
}

// maxIndexedSpecs bounds the candidate-index cache. Workloads share a
// handful of spec pointers; a stream of distinct specs just rebuilds.
const maxIndexedSpecs = 32

// indexEntry is one candidate resolved: the server's trace and the
// spec's nominal cost on it.
type indexEntry struct {
	tr   *serverTrace
	cost task.Cost
}

// specIndex is one spec resolved against the pool: the tracked servers
// that solve it, in name order, as the names callers see and as the
// entries the evaluation passes read, and grouped into the classes the
// pruned pass serves idle candidates from. Immutable once built, but for
// busy.
type specIndex struct {
	names   []string
	entries []indexEntry
	// slot maps a pool position (serverTrace.pos) to the server's entry,
	// -1 where the server does not solve the spec; classOf maps an entry
	// to its class and next to the class's next entry in name order, -1
	// after the last.
	slot    []int32
	classOf []int32
	next    []int32
	// classes is ordered by idle flow, ties by first member; busy counts,
	// per class, the members in Manager.busy, and idle is its first member
	// not in it, -1 when busy[c] == size: the one the pruned pass projects.
	// Both are kept where a trace joins or leaves Manager.busy
	// (countBusyLocked).
	classes []idleClass
	busy    []int32
	idle    []int32
	// least is the least compute and the least output cost over the
	// entries, which the pruned pass's stop rule is taken at.
	least task.Cost
	// memo holds, at the entries' positions, each entry's last successful
	// projection (see "Evaluation core"), and memoAt the clamped arrival
	// of the last one written.
	memo   []memoSlot
	memoAt float64
}

// memoSlot is an entry's last successful projection: the Manager epoch,
// trace generation and clamped arrival it was taken at, and what it
// predicted. The name is the entry's, and the flow the completion less
// the arrival, as a projection computes it.
type memoSlot struct {
	epoch, gen               uint64
	arrival                  float64
	completion, perturbation float64
	interfered               int
}

// classKey is everything the projection of an empty trace reads beside
// the arrival and the spec: the cost and the memory configuration.
type classKey struct {
	cost task.Cost
	mem  memConfig
}

// idleClass is the entries of one spec that share a classKey and so
// project identically while their traces are idle.
type idleClass struct {
	classKey
	first, size int32 // the first member (see specIndex.next) and their number
}

// owns reports whether candidates is the names slice itself, handed
// back unmodified.
func (ix *specIndex) owns(candidates []string) bool {
	return len(candidates) == len(ix.names) && len(candidates) > 0 && &candidates[0] == &ix.names[0]
}

// indexLocked returns the spec's candidate index, building it on first
// use since the pool last changed. Caller holds m.mu.
func (m *Manager) indexLocked(spec *task.Spec) *specIndex {
	if ix, ok := m.index[spec]; ok {
		return ix
	}
	if len(m.index) >= maxIndexedSpecs {
		clear(m.index)
	}
	n := min(len(m.order), len(spec.CostOn))
	ix := &specIndex{
		names: make([]string, 0, n), entries: make([]indexEntry, 0, n),
		slot: make([]int32, len(m.order)), next: make([]int32, 0, n),
	}
	byKey := make(map[classKey]int)
	var last []int32 // per class, while its list is being built
	for i, name := range m.order {
		ix.slot[i] = -1
		cost, ok := spec.Cost(name)
		if !ok {
			continue
		}
		tr, k := m.ordered[i], int32(len(ix.entries))
		ix.slot[i] = k
		ix.names = append(ix.names, name)
		ix.entries = append(ix.entries, indexEntry{tr: tr, cost: cost})
		key := classKey{cost: cost, mem: tr.mem}
		ix.next = append(ix.next, -1)
		if c, ok := byKey[key]; ok {
			ix.next[last[c]] = k
			last[c] = k
			ix.classes[c].size++
		} else {
			byKey[key] = len(ix.classes)
			ix.classes = append(ix.classes, idleClass{classKey: key, first: k, size: 1})
			last = append(last, k)
		}
	}
	slices.SortStableFunc(ix.classes, func(a, b idleClass) int { return cmp.Compare(a.cost.Total(), b.cost.Total()) })
	ix.classOf = make([]int32, len(ix.entries))
	ix.least = task.Cost{Compute: math.Inf(1), Output: math.Inf(1)}
	for c, cl := range ix.classes {
		ix.least.Compute = min(ix.least.Compute, cl.cost.Compute)
		ix.least.Output = min(ix.least.Output, cl.cost.Output)
		for k := cl.first; k >= 0; k = ix.next[k] {
			ix.classOf[k] = int32(c)
		}
	}
	counts := make([]int32, 2*len(ix.classes))
	ix.busy, ix.idle = counts[:len(ix.classes):len(ix.classes)], counts[len(ix.classes):]
	ix.memo = make([]memoSlot, len(ix.entries))
	for _, tr := range m.busy {
		if k := ix.slot[tr.pos]; k >= 0 {
			ix.busy[ix.classOf[k]]++
		}
	}
	for c, cl := range ix.classes {
		ix.idle[c] = ix.idleFrom(cl.first)
	}
	m.index[spec] = ix
	m.indexBuilds.Add(1)
	return ix
}

// Candidates returns the tracked servers that solve spec, in name
// order. The slice is the spec's candidate index, shared and read-only:
// passed unmodified to the EvaluateAll family or MeetsDeadline it
// selects the indexed entry, which looks no name up. It stays valid
// (as a list of names) after the pool changes; it just stops being
// recognised.
func (m *Manager) Candidates(spec *task.Spec) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.indexLocked(spec).names
}

// lookupLocked resolves one candidate by name. An untracked server is
// an error; one that cannot solve the task is solvable=false.
func (m *Manager) lookupLocked(spec *task.Spec, server string) (e indexEntry, solvable bool, err error) {
	tr, found := m.traces[server]
	if !found {
		return indexEntry{}, false, fmt.Errorf("htm: unknown server %q", server)
	}
	cost, solvable := spec.Cost(server)
	return indexEntry{tr: tr, cost: cost}, solvable, nil
}

// solverLocked is lookupLocked for callers that need the server to
// solve the task.
func (m *Manager) solverLocked(spec *task.Spec, server string) (indexEntry, error) {
	e, solvable, err := m.lookupLocked(spec, server)
	if err == nil && !solvable {
		err = fmt.Errorf("htm: server %q cannot solve %s", server, spec.Name())
	}
	return e, err
}

// ownedLocked returns the spec's cached index when candidates is the
// slice it handed out, nil for any other list.
func (m *Manager) ownedLocked(spec *task.Spec, candidates []string) *specIndex {
	if ix := m.index[spec]; ix != nil && ix.owns(candidates) {
		return ix
	}
	return nil
}

// resolveLocked returns the solvable candidates as entries, in
// candidate order: the index's own when candidates is the slice
// Candidates handed out, otherwise each name looked up into sc.entries,
// with one error per unknown server. Either way the caller runs the
// same pass over the result, which it must not modify.
func (m *Manager) resolveLocked(spec *task.Spec, candidates []string, sc *evalScratch) (entries []indexEntry, errs []error) {
	if ix := m.ownedLocked(spec, candidates); ix != nil {
		return ix.entries, nil
	}
	entries = sc.entries[:0]
	for _, s := range candidates {
		e, solvable, err := m.lookupLocked(spec, s)
		if err != nil {
			errs = append(errs, err)
		} else if solvable {
			entries = append(entries, e)
		}
	}
	m.nameLookups.Add(uint64(len(candidates)))
	sc.entries = entries
	return entries, errs
}

// AdvanceTo moves the trace time forward to t.
func (m *Manager) AdvanceTo(t float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advanceLocked(t)
}

// advanceLocked moves the trace time to t, steps the busy traces that
// have an event due by then through those events, and returns the
// effective time: the trace never moves backwards, so a stale t (behind
// a concurrent caller's advance) is clamped to the current trace time. A
// busy trace whose next event lies beyond t is not touched, and a
// stepped one is left at its last event, not at t (see "Trace clock").
// A t equal to the trace time is not an advance: a job placed at this
// instant stays waiting, its release the trace's next event, due at the
// next real advance and crossed inside any projection. A trace leaves
// the walk once it is idle in the sense the rest of the package relies
// on: no live job, not collapsed, and its fluid clock not ahead of the
// trace time (the last event of a trace may fall within fluid's time
// tolerance after t). It leaves with an empty baseline, which is what a
// refresh would compute from then on, so its ready time is the trace
// time and nothing has to look at it again until a job is placed on it.
func (m *Manager) advanceLocked(t float64) float64 {
	if t <= m.now {
		return m.now
	}
	m.now = t
	due := t + fluid.TimeEps
	kept, stepped, maxLive := 0, 0, int32(0)
	restep := m.restep[:0]
	for _, tr := range m.busy {
		if tr.next > due {
			maxLive = max(maxLive, tr.live)
			m.busy[kept] = tr
			kept++
			continue
		}
		stepped++
		tr.next, tr.rates = tr.sim.StepEventsQuiet(t)
		if drained := m.keyLocked(tr); drained && tr.sim.Now() <= t {
			tr.busy = false
			m.countBusyLocked(tr, -1)
			tr.setBaseline(newBaselineSet(), tr.gen)
			continue
		}
		restep = append(restep, tr)
	}
	clear(m.busy[kept:])
	m.busy = m.busy[:kept]
	// The traces kept in place are still in key order; the stepped ones
	// were re-keyed and go back in at their new places.
	for _, tr := range restep {
		maxLive = max(maxLive, tr.live)
		m.insertBusyLocked(tr)
	}
	clear(restep)
	m.restep = restep[:0]
	m.maxLive = maxLive
	if stepped > 0 {
		m.stepped.Add(uint64(stepped))
	}
	m.pruneLocked()
	return t
}

// keyLocked follows everything that moves a trace's sim or adds to it (a
// step of the clock, Place, a re-anchor, Sim), once the caller has set
// tr.next and tr.rates to the sim's pace: a step of the clock returns the
// pace it stopped on, rekeyLocked paces the sim. It records the sim's
// CPU-free date and live count, and lists the trace for retention
// pruning once it holds a terminal record. It does not move the trace in
// Manager.busy; rekeyLocked does. It reports whether the trace is
// drained: no live job and not collapsed.
func (m *Manager) keyLocked(tr *serverTrace) (drained bool) {
	live := tr.sim.Live()
	compute := 0.0
	for _, j := range live {
		if j.State == fluid.StateCompute {
			compute += j.Remaining[task.PhaseCompute]
		}
	}
	tr.key = tr.sim.Now() + compute
	tr.live = int32(len(live))
	m.maxLive = max(m.maxLive, tr.live)
	if !tr.finished && len(tr.sim.Jobs()) > len(live) {
		tr.finished = true
		m.finished = append(m.finished, tr)
	}
	if collapsed, _ := tr.sim.Collapsed(); collapsed || len(live) > 0 {
		return false
	}
	tr.next = tr.sim.Now()
	return true
}

// before reports whether a goes before b in Manager.busy: by CPU-free
// date, then pool position.
func (a *serverTrace) before(b *serverTrace) bool {
	return a.key < b.key || a.key == b.key && a.pos < b.pos
}

// busyIndexLocked returns the place of the trace's (key, pos) in
// Manager.busy: the number of traces before it.
func (m *Manager) busyIndexLocked(tr *serverTrace) int {
	lo, hi := 0, len(m.busy)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); m.busy[h].before(tr) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// insertBusyLocked puts a keyed trace at its place in Manager.busy.
func (m *Manager) insertBusyLocked(tr *serverTrace) {
	m.busy = slices.Insert(m.busy, m.busyIndexLocked(tr), tr)
}

// rekeyLocked is keyLocked outside the clock's own pass: a trace in
// Manager.busy moves to the place of its new key.
func (m *Manager) rekeyLocked(tr *serverTrace) {
	tr.next, tr.rates = tr.sim.Pace()
	if !tr.busy {
		m.keyLocked(tr)
		return
	}
	i, key := m.busyIndexLocked(tr), tr.key
	m.keyLocked(tr)
	if tr.key != key {
		m.busy = slices.Delete(m.busy, i, i+1)
		m.insertBusyLocked(tr)
	}
}

// countBusyLocked adds d to the busy count of the trace's class in every
// cached index, as the trace joins (+1) or leaves (-1) Manager.busy, once
// tr.busy says so, and keeps the class's first idle member: a member named
// before it that leaves Manager.busy takes its place, and when that member
// joins, the next member not in Manager.busy does.
func (m *Manager) countBusyLocked(tr *serverTrace, d int32) {
	for _, ix := range m.index {
		k := ix.slot[tr.pos]
		if k < 0 {
			continue
		}
		c := ix.classOf[k]
		ix.busy[c] += d
		if first := ix.idle[c]; d < 0 && (first < 0 || k < first) {
			ix.idle[c] = k
		} else if d > 0 && first == k {
			ix.idle[c] = ix.idleFrom(k)
		}
	}
}

// idleFrom returns the first member of k's class, from k on in name
// order, whose trace is not in Manager.busy, -1 if none is.
func (ix *specIndex) idleFrom(k int32) int32 {
	for k >= 0 && ix.entries[k].tr.busy {
		k = ix.next[k]
	}
	return k
}

// liveClone returns a pooled live-only clone of the trace as it stands,
// at its own clock: a projection's Add releases the candidate at the
// arrival and its run crosses the gap, so no read moves the trace.
func (tr *serverTrace) liveClone() *fluid.Sim {
	return tr.sim.CloneLiveInto(getSim())
}

// pruneLocked drops completed-job records older than the retention
// window (WithRetention), amortized to at most one pass per
// quarter-window of trace time. Caller holds m.mu. Pruning removes
// only terminal records, so cached baselines and live projections are
// untouched.
func (m *Manager) pruneLocked() {
	if m.retention <= 0 || m.now-m.lastPrune < m.retention/4 {
		return
	}
	m.lastPrune = m.now
	cutoff := m.now - m.retention
	kept := m.finished[:0]
	for _, tr := range m.finished {
		m.pruneScratch = tr.sim.PruneCompletedBefore(cutoff, m.pruneScratch[:0])
		for _, id := range m.pruneScratch {
			delete(m.placements, id)
		}
		if tr.finished = len(tr.sim.Jobs()) > len(tr.sim.Live()); tr.finished {
			kept = append(kept, tr)
		}
	}
	clear(m.finished[len(kept):])
	m.finished = kept
}

// baselineLocked returns the server's cached baseline projection,
// recomputing it when the trace mutated since it was last taken.
func (m *Manager) baselineLocked(tr *serverTrace) map[int]float64 {
	if tr.baseline != nil && tr.baselineGen == tr.gen {
		return tr.baseline.m
	}
	m.refreshes.Add(1)
	clone := tr.liveClone()
	b := newBaselineSet()
	projectCloneInto(clone, b.m)
	putSim(clone)
	tr.setBaseline(b, tr.gen)
	return tr.baseline.m
}

// projectCloneInto runs a live-only clone (from CloneLive/CloneLiveInto)
// to idle and records into out the projected completion date of every
// job that was live at the clone. Jobs lost to a projected collapse are
// absent from the result, as in fluid.Sim.ProjectedCompletions. The
// clone is consumed; releasing it back to the pool is the caller's job.
func projectCloneInto(clone *fluid.Sim, out map[int]float64) {
	clone.RunToIdleQuiet(math.Inf(1))
	completionsInto(clone, out)
}

// completionsInto records into out the completion date of every job of a
// live-only clone run to idle.
func completionsInto(clone *fluid.Sim, out map[int]float64) {
	// A live-only clone's job list is exactly the set that was live when
	// it was taken; no pre-run copy of Live() is needed.
	for _, j := range clone.Jobs() {
		if c, ok := j.Completion(); ok {
			out[j.ID] = c
		}
	}
}

// candidateJob is one projection: the candidate's cost, a live-only
// clone of its trace (which carries the server's name) and the baseline
// it is measured against.
type candidateJob struct {
	cost     task.Cost
	clone    *fluid.Sim
	baseline *baselineSet
}

// project is projectOnto consuming the clone.
func project(j candidateJob, id int, spec *task.Spec, arrival float64, withPerTask bool) (Prediction, error) {
	defer putSim(j.clone)
	return projectOnto(j, id, spec, arrival, withPerTask)
}

// projectOnto adds the candidate task to the clone, runs the perturbed
// projection and derives the prediction against the baseline. The clone,
// run to idle, is left to the caller. It touches nothing but the job, so
// it runs under the Manager lock or on a snapshot taken outside it.
func projectOnto(j candidateJob, id int, spec *task.Spec, arrival float64, withPerTask bool) (Prediction, error) {
	if err := j.clone.Add(id, arrival, j.cost, spec.MemoryMB); err != nil {
		return Prediction{}, fmt.Errorf("htm: evaluate on %q: %w", j.clone.Name(), err)
	}
	j.clone.RunToIdleQuiet(math.Inf(1))

	p := Prediction{Server: j.clone.Name(), Completion: math.Inf(1)}
	if withPerTask {
		p.PerTask = make(map[int]float64, len(j.baseline.m))
	}
	// Iterate the clone's job list (deterministic release order) rather
	// than the baseline map, so the floating-point perturbation sum is
	// reproducible across calls.
	for _, jb := range j.clone.Jobs() {
		if jb.ID == id {
			// The candidate itself: an unfinished projection means the
			// placement collapses the server (memory-model extension);
			// report an infinite completion so heuristics avoid it.
			if c, ok := jb.Completion(); ok {
				p.Completion = c
			}
			continue
		}
		before, tracked := j.baseline.m[jb.ID]
		if !tracked {
			// Finished (π = 0 exactly) or already lost before the
			// evaluation: no perturbation to account.
			continue
		}
		after, ok := jb.Completion()
		if !ok {
			// Lost in the perturbed projection: unbounded delay.
			p.Perturbation = math.Inf(1)
			p.Interfered++
			if withPerTask {
				p.PerTask[jb.ID] = math.Inf(1)
			}
			continue
		}
		pi := after - before
		if withPerTask {
			p.PerTask[jb.ID] = pi
		}
		p.Perturbation += pi
		if pi > interferenceEps {
			p.Interfered++
		}
	}
	p.Flow = p.Completion - arrival
	return p, nil
}

// projectLocked projects one resolved candidate under the lock: a
// live-only clone of its trace against the trace's baseline, refreshed
// first if stale. It returns the clone run to idle, nil on an error.
func (m *Manager) projectLocked(e *indexEntry, id int, spec *task.Spec, arrival float64, withPerTask bool) (Prediction, *fluid.Sim, error) {
	m.baselineLocked(e.tr)
	clone := e.tr.liveClone()
	p, err := projectOnto(candidateJob{cost: e.cost, clone: clone, baseline: e.tr.baseline},
		id, spec, arrival, withPerTask)
	if err != nil {
		putSim(clone)
		return p, nil, err
	}
	return p, clone, nil
}

// memoFor returns the spec's cached index, whose memo a pass for job id
// at the (clamped) arrival writes, and whether the pass may read it. The
// memo serves any candidate list, the index's own or one resolved by name:
// an entry finds its slot by pool position. A pass reads only when a slot
// was written at this very arrival, since the trace time never goes back
// and no other slot can match, and never for a job already placed: a
// projection does not depend on the job id, but adding an id live on the
// trace fails, and the memo would hide that error.
func (m *Manager) memoFor(spec *task.Spec, id int, arrival float64) (ix *specIndex, read bool) {
	if ix = m.index[spec]; ix == nil || ix.memoAt != arrival {
		return ix, false
	}
	_, placed := m.placements[id]
	return ix, !placed
}

// predictLocked returns the prediction for a resolved candidate. With ix
// and read from memoFor, it serves the candidate's memo slot when the slot
// was taken at the arrival, at the trace's current generation and in the
// current epoch, which makes it the bits a projection would compute
// (reused); otherwise it projects, and memoises a projection that
// succeeds. clone is the projection's, run to idle, for the caller to
// stash or pool; nil when the memo served or the projection failed.
func (m *Manager) predictLocked(ix *specIndex, read bool, e *indexEntry, id int, spec *task.Spec, arrival float64) (p Prediction, clone *fluid.Sim, reused bool, err error) {
	k := int32(-1)
	if ix != nil {
		k = ix.slot[e.tr.pos]
	}
	if read && k >= 0 {
		if s := &ix.memo[k]; s.epoch == m.epoch && s.gen == e.tr.gen && s.arrival == arrival {
			return Prediction{Server: ix.names[k], Completion: s.completion, Flow: s.completion - arrival,
				Perturbation: s.perturbation, Interfered: s.interfered}, nil, true, nil
		}
	}
	p, clone, err = m.projectLocked(e, id, spec, arrival, false)
	if err == nil && k >= 0 {
		ix.memo[k] = memoSlot{epoch: m.epoch, gen: e.tr.gen, arrival: arrival,
			completion: p.Completion, perturbation: p.Perturbation, interfered: p.Interfered}
		ix.memoAt = arrival
	}
	return p, clone, false, err
}

// Evaluate simulates placing job id (a new task with the given spec and
// arrival date) on the candidate server and reports the prediction. The
// live trace is not modified. Evaluate advances the trace to the
// arrival date first, as the paper's HTM does on each request; an
// arrival the trace has already moved past (possible when evaluations
// race placements) is treated as arriving now.
func (m *Manager) Evaluate(id int, spec *task.Spec, arrival float64, server string) (Prediction, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	arrival = m.advanceLocked(arrival)
	e, err := m.solverLocked(spec, server)
	if err != nil {
		return Prediction{}, err
	}
	p, clone, err := m.projectLocked(&e, id, spec, arrival, true)
	if clone != nil {
		putSim(clone)
	}
	return p, err
}

// EvaluateFull is the full-replay reference implementation of Evaluate:
// it recomputes the server's baseline projection from the live trace
// instead of using the incremental cache. It exists for equivalence
// testing and benchmarking; production paths use Evaluate/EvaluateAll.
func (m *Manager) EvaluateFull(id int, spec *task.Spec, arrival float64, server string) (Prediction, error) {
	m.mu.Lock()
	arrival = m.advanceLocked(arrival)
	e, err := m.solverLocked(spec, server)
	if err != nil {
		m.mu.Unlock()
		return Prediction{}, err
	}
	baseClone := e.tr.sim.CloneLive()
	j := candidateJob{cost: e.cost, clone: e.tr.sim.Clone(), baseline: newBaselineSet()}
	m.mu.Unlock()

	defer j.baseline.release()
	projectCloneInto(baseClone, j.baseline.m)
	return project(j, id, spec, arrival, true)
}

// EvaluateAll evaluates every candidate server and returns the
// predictions sorted by server name. Servers that cannot solve the
// task are skipped — that is the normal "no implementation" condition.
// Failures to evaluate a solvable candidate (unknown server, collapsed
// trace) are joined into the returned error; predictions for the
// remaining candidates are still returned, so callers can distinguish
// "no server solves this task" (empty, nil error) from "every
// evaluation failed" (empty, non-nil error) and proceed on partial
// results. Through a Minimizer the contract covers the candidates it
// projects: a candidate pruned by its bound is never evaluated, so an
// error it would have raised is not observed.
func (m *Manager) EvaluateAll(id int, spec *task.Spec, arrival float64, candidates []string) ([]Prediction, error) {
	return m.EvaluateAllInto(id, spec, arrival, candidates, nil)
}

// evalScratch is the per-call working set of the evaluation passes,
// pooled so a steady stream of decisions reuses the same buffers instead
// of allocating them per call.
type evalScratch struct {
	entries []indexEntry     // candidates resolved by name (resolveLocked)
	kept    []candidateBound // the pruned pass's candidates to project (prune.go)
}

// put returns the scratch to the pool, dropping the trace pointers a
// name-resolved pass left in it.
func (sc *evalScratch) put() {
	clear(sc.entries)
	scratchPool.Put(sc)
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// EvaluateAllInto is EvaluateAll writing the predictions into out,
// which is truncated and grown as needed — a caller that threads the
// returned slice back in across decisions amortizes the result buffer
// to zero steady-state allocations. Passing nil behaves like
// EvaluateAll. The candidates are projected one after the other under
// the lock, each served from the memo where it can be (see "Evaluation
// core").
func (m *Manager) EvaluateAllInto(id int, spec *task.Spec, arrival float64, candidates []string, out []Prediction) ([]Prediction, error) {
	sc := scratchPool.Get().(*evalScratch)
	m.mu.Lock()
	m.stash.reset()
	arrival = m.advanceLocked(arrival)
	memo, read := m.memoFor(spec, id, arrival)
	entries, errs := m.resolveLocked(spec, candidates, sc)
	out = out[:0]
	reused := 0
	for k := range entries {
		p, clone, hit, err := m.predictLocked(memo, read, &entries[k], id, spec, arrival)
		if hit {
			reused++
		}
		if clone != nil {
			putSim(clone)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out = append(out, p)
	}
	m.mu.Unlock()
	m.considered.Add(uint64(len(entries)))
	m.projected.Add(uint64(len(entries) - reused))
	m.reused.Add(uint64(reused))
	sc.put()
	sortByServer(out)
	return out, errors.Join(errs...)
}

// sortByServer orders predictions by server name. The exhaustive pass
// hands it a sorted list, the pruned pass a short one (a prediction per
// idle class it projected, in class order, then the few busy candidates
// projected), and a name-resolved subset whatever order its caller chose
// (KPB's, by execution time). An insertion sort puts a near-sorted list
// right in about as many moves as there are predictions; once the moves
// exceed a few per prediction pdqsort finishes the job. Neither allocates
// (the comparison captures nothing), and with unique server names any sort
// gives the same result.
func sortByServer(out []Prediction) {
	budget := 4 * len(out)
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Server < out[k-1].Server; k-- {
			if budget--; budget < 0 {
				slices.SortFunc(out, func(a, b Prediction) int { return strings.Compare(a.Server, b.Server) })
				return
			}
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
}

// Place commits job id to the chosen server's live trace. This is the
// "Tell the HTM that task is allocated to server" step of Figures 2-4.
// When the last pruned pass projected this very placement, its
// projection becomes the trace's baseline (see "Evaluation core").
func (m *Manager) Place(id int, spec *task.Spec, arrival float64, server string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.stash.reset()
	e, err := m.solverLocked(spec, server)
	if err != nil {
		return err
	}
	tr := e.tr
	if prev, dup := m.placements[id]; dup {
		return fmt.Errorf("htm: job %d already placed on %q", id, prev.server)
	}
	arrival = m.advanceLocked(arrival)
	idle := !tr.busy
	if err := tr.sim.Add(id, arrival, e.cost, spec.MemoryMB); err != nil {
		return fmt.Errorf("htm: place on %q: %w", server, err)
	}
	m.rekeyLocked(tr)
	if !tr.busy {
		tr.busy = true
		m.insertBusyLocked(tr)
		m.countBusyLocked(tr, 1)
	}
	b := m.stash.take(tr, idle, e.cost, spec, id, arrival)
	tr.invalidate()
	if b != nil {
		tr.setBaseline(b, tr.gen)
	}
	m.placements[id] = placement{server: server, arrival: arrival}
	return nil
}

// PlacedOn returns the server a job was committed to.
func (m *Manager) PlacedOn(id int) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, ok := m.placements[id]
	return p.server, ok
}

// PredictedCompletion returns the trace's current projection of a
// placed job's completion date: the actual completion for jobs the
// trace has already finished, the cached baseline projection for jobs
// still running. Jobs on dropped (collapsed) servers and jobs lost in a
// projected collapse have no projection.
func (m *Manager) PredictedCompletion(id int) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.placements[id]
	if !ok {
		return 0, false
	}
	tr, ok := m.traces[p.server]
	if !ok {
		return 0, false
	}
	if j := tr.sim.Job(id); j != nil {
		if c, done := j.Completion(); done {
			return c, true
		}
	}
	c, ok := m.baselineLocked(tr)[id]
	return c, ok
}

// NotifyCompletion informs the Manager that a placed job actually
// completed at time t. When the synchronization extension is enabled
// the trace is re-anchored (the job is force-completed at t); otherwise
// the notification is ignored, matching the paper's open-loop HTM.
func (m *Manager) NotifyCompletion(id int, t float64) error {
	if !m.sync {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.placements[id]
	if !ok {
		return fmt.Errorf("htm: notify completion: unknown job %d", id)
	}
	tr, ok := m.traces[p.server]
	if !ok {
		return nil // server dropped after a collapse; nothing to anchor
	}
	// A completion date the trace has already moved past is re-anchored
	// at the current trace time; the trace cannot rewrite its history.
	t = m.advanceLocked(t)
	// Key before looking at the error: moving the sim to t releases a job
	// placed at this very instant, which may collapse the server and fail
	// the job.
	err := tr.sim.ForceComplete(id, t)
	m.rekeyLocked(tr)
	if err != nil {
		// The move may have collapsed the trace, and no generation records
		// it: the memo goes, as at a Sim read.
		m.epoch++
		return err
	}
	tr.invalidate()
	return nil
}

// DropServer removes a server from the candidate set (used when the
// execution layer reports a collapse). Placed jobs on that server keep
// their records but the trace is no longer consulted.
func (m *Manager) DropServer(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tr, ok := m.traces[name]
	if !ok {
		return
	}
	m.stash.reset()
	if tr.baseline != nil {
		tr.baseline.release()
		tr.baseline = nil
	}
	delete(m.traces, name)
	if i, ok := slices.BinarySearch(m.order, name); ok {
		m.order = slices.Delete(m.order, i, i+1)
		m.ordered = slices.Delete(m.ordered, i, i+1)
		m.renumberLocked(i)
	}
	if i := slices.Index(m.busy, tr); i >= 0 {
		m.busy = slices.Delete(m.busy, i, i+1)
	}
	if i := slices.Index(m.finished, tr); i >= 0 {
		m.finished = slices.Delete(m.finished, i, i+1)
	}
	clear(m.index)
}

// ProjectedReady returns the projected instant at which the server
// drains its current live work (the latest projected completion over
// its live jobs, or the trace time for an idle server). This is the
// "machine ready time" the OLB/KPB baselines consume; it reads the
// cached baseline, so it is cheap and safe under concurrency.
func (m *Manager) ProjectedReady(server string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tr, ok := m.traces[server]
	if !ok {
		return 0, false
	}
	return m.readyLocked(tr), true
}

// readyLocked returns one trace's projected drain instant from the
// drain memo, refreshing the baseline cache first if the trace
// mutated. Caller holds m.mu.
func (m *Manager) readyLocked(tr *serverTrace) float64 {
	m.baselineLocked(tr)
	if tr.drain > m.now {
		return tr.drain
	}
	return m.now
}

// MeetsDeadline is the deadline admission test over the traces: it
// reports whether some candidate, by its projected drain instant (or
// arrival, if later) plus the task's nominal cost on it, would finish
// by the deadline. Candidates are read in order and the scan stops at
// the first that would, as a loop over ProjectedReady does, so stale
// baselines are refreshed no further than that.
func (m *Manager) MeetsDeadline(spec *task.Spec, arrival, deadline float64, candidates []string) bool {
	sc := scratchPool.Get().(*evalScratch)
	defer sc.put()
	m.mu.Lock()
	defer m.mu.Unlock()
	entries, _ := m.resolveLocked(spec, candidates, sc)
	for _, e := range entries {
		if max(m.readyLocked(e.tr), arrival)+e.cost.Total() <= deadline {
			return true
		}
	}
	return false
}

// MinProjectedReady returns the shard-level aggregate of
// ProjectedReady: the earliest projected drain instant over every
// tracked server. An idle server pins the aggregate at the current
// trace time. This is the load signal a sharded dispatch layer
// compares across HTMs when routing a batch — one cached-baseline
// scan of the busy traces, no candidate projections. ok is false when
// no server is tracked.
func (m *Manager) MinProjectedReady() (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.order) == 0 {
		return 0, false
	}
	// A trace outside the walk is ready at the trace time (advanceLocked),
	// and none is ready earlier.
	if len(m.busy) < len(m.ordered) {
		return m.now, true
	}
	best := math.Inf(1)
	for _, tr := range m.busy {
		if ready := m.readyLocked(tr); ready < best {
			best = ready
		}
	}
	return best, true
}

// ProjectedReadyAll returns the projected drain instant of every
// tracked server in one lock acquisition — the snapshot a federation
// member publishes in its load summary so the dispatcher can price
// candidate placements per server. Returns nil when no server is
// tracked.
func (m *Manager) ProjectedReadyAll() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.order) == 0 {
		return nil
	}
	ready := make(map[string]float64, len(m.order))
	for i, name := range m.order {
		ready[name] = m.now
		if tr := m.ordered[i]; tr.busy {
			ready[name] = m.readyLocked(tr)
		}
	}
	return ready
}

// Sim exposes the live trace of one server, brought up to the trace
// time (between reads a trace stands at its own last event, see "Trace
// clock"); the Gantt renderer consumes this. Moving a busy trace changes
// the last bits of its later dates, so this is for end-of-run reads, not
// for decisions. The returned Sim is NOT protected by the Manager's
// lock: use it only when no concurrent Place/NotifyCompletion can run
// (end-of-run rendering, single-threaded drivers). Concurrent readers
// should go through Evaluate/ProjectedReady/PredictedCompletion.
func (m *Manager) Sim(server string) (*fluid.Sim, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tr, ok := m.traces[server]
	if !ok {
		return nil, false
	}
	if tr.sim.Now() < m.now {
		// The move changes the last bits of what a projection of the
		// trace gives, and no generation records it.
		m.stash.reset()
		m.epoch++
		tr.sim.AdvanceToQuiet(m.now)
		m.rekeyLocked(tr)
	}
	return tr.sim, true
}
