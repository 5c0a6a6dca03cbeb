package sched

import (
	"fmt"
	"math"
	"sort"

	"casched/internal/assign"
	"casched/internal/task"
)

// BatchItem is one member of a simultaneous-arrival batch presented to
// a BatchScheduler: the task, its decision instant and its feasible
// candidate subset.
type BatchItem struct {
	// JobID identifies the scheduling attempt (as Context.JobID does).
	JobID int
	// Task is the arriving task.
	Task *task.Task
	// Now is the decision instant (the batch head's arrival date for
	// the simultaneous bursts batching targets).
	Now float64
	// Candidates is the item's feasible server subset, in stable
	// order.
	Candidates []string
}

// BatchScheduler is implemented by heuristics that place k
// simultaneous arrivals jointly instead of greedily one by one.
//
// ChooseBatch returns one Choice per item, aligned with items; an
// empty Choice.Server defers the item to a later wave (a batch larger
// than the server pool, or an item whose candidates are all contested,
// cannot be fully placed at once). The caller commits the returned
// wave — mutating the evaluation surface the heuristic reads through
// ctx — and calls ChooseBatch again with the deferred items, so every
// wave is decided against re-projected predictions. The shared ctx
// carries the evaluation surfaces (HTM, Info, RNG); its per-task
// fields (Task, JobID, Now, Candidates) are ignored.
type BatchScheduler interface {
	Scheduler
	ChooseBatch(ctx *Context, items []BatchItem) ([]Choice, error)
}

// MinCostBatch lifts any ScoredScheduler to a BatchScheduler by
// solving a k-task min-cost assignment over the per-pair objective
// matrix: entry (task, server) is the score the wrapped heuristic
// would give that server as the sole candidate, so a wave holds at
// most one new task per server and the assignment minimizes the sum
// of the heuristic's objective across the wave. For one-task batches
// the decision degenerates to the wrapped heuristic's.
//
// Within one wave the matrix is exact: candidate predictions depend
// only on the candidate's own trace, and a wave places at most one
// task per server, so the summed per-pair scores equal the objective
// of the joint placement. Cross-wave interactions are handled by the
// caller's re-projection between waves.
//
// Forcing one task per server would be wrong on heterogeneous pools,
// where stacking two tasks on a fast server beats occupying the
// slowest one: each task therefore also carries a private defer
// option priced at its best server's score plus twice its own service
// time there — a first-order estimate of arriving second on that
// server (its own slip plus the delay it inflicts on the occupant).
// A task whose defer estimate undercuts every still-free server sits
// the wave out and is re-decided against exact re-projected
// predictions once the wave commits, so the assignment spreads waves
// only where spreading actually lowers the summed objective. At least
// one task commits per wave (a task's own best server always beats
// its defer estimate there), so batches of any size drain.
//
// The defer estimate is denominated in seconds, so it is commensurate
// with time-valued objectives (HMCT and MCT completion dates, MSF
// sum-flow) — the heuristics batch assignment is built for. Under
// count-valued objectives (MP's total perturbation, MNI's
// interference count) the service-time bump dwarfs the score and the
// defer option never wins, so waves degenerate to spread-first
// matching — which is what those objectives favor anyway: an idle
// server, however slow, has zero perturbation and zero interference.
type MinCostBatch struct {
	// Inner is the wrapped heuristic supplying the per-pair objective.
	Inner ScoredScheduler
}

// NewMinCostBatch wraps a scored heuristic with min-cost batch
// assignment.
func NewMinCostBatch(inner ScoredScheduler) *MinCostBatch {
	return &MinCostBatch{Inner: inner}
}

// Name implements Scheduler.
func (m *MinCostBatch) Name() string { return m.Inner.Name() + "+batch" }

func (m *MinCostBatch) usesHTM() bool { return UsesHTM(m.Inner) }

// Choose implements Scheduler by delegating single decisions to the
// wrapped heuristic.
func (m *MinCostBatch) Choose(ctx *Context) (string, error) { return m.Inner.Choose(ctx) }

// ChooseScored implements ScoredScheduler by delegation.
func (m *MinCostBatch) ChooseScored(ctx *Context) (Choice, error) { return m.Inner.ChooseScored(ctx) }

// ChooseBatch implements BatchScheduler: one wave of the min-cost
// assignment over the per-pair objective matrix. Items whose every
// candidate fails to evaluate defer to a later wave alongside items
// squeezed out by contention; the caller distinguishes lack of
// progress.
func (m *MinCostBatch) ChooseBatch(ctx *Context, items []BatchItem) ([]Choice, error) {
	if len(items) == 0 {
		return nil, nil
	}
	// Columns: the sorted union of every item's candidates.
	colOf := make(map[string]int)
	var cols []string
	for _, it := range items {
		for _, s := range it.Candidates {
			if _, ok := colOf[s]; !ok {
				colOf[s] = 0
				cols = append(cols, s)
			}
		}
	}
	sort.Strings(cols)
	for j, s := range cols {
		colOf[s] = j
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("sched: batch of %d items has no candidate server", len(items))
	}

	// The matrix has one real column per server plus one private defer
	// column per item (column len(cols)+i, feasible only for item i).
	// Probe items grouped by decision instant, in first-appearance
	// order: the HTM's memo serves a prediction only at the arrival it
	// was taken at, so interleaving distinct arrivals would discard
	// primed entries. Within each group, one full-candidate
	// EvaluateAll per distinct spec primes the memo, turning the
	// per-pair probes into memo reads instead of k×n single-candidate
	// projections.
	var nows []float64
	byNow := make(map[float64][]int, 1)
	for i, it := range items {
		if _, ok := byNow[it.Now]; !ok {
			nows = append(nows, it.Now)
		}
		byNow[it.Now] = append(byNow[it.Now], i)
	}

	inf := math.Inf(1)
	width := len(cols) + len(items)
	cost := make([][]float64, len(items))
	pair := Context{HTM: ctx.HTM, Info: ctx.Info, RNG: ctx.RNG}
	single := make([]string, 1)
	for _, now := range nows {
		group := byNow[now]
		if ctx.HTM != nil {
			primed := make(map[*task.Spec]bool, len(group))
			for _, i := range group {
				it := items[i]
				if primed[it.Task.Spec] {
					continue
				}
				primed[it.Task.Spec] = true
				// Errors surface per pair below; partial results still
				// prime.
				_, _ = ctx.HTM.EvaluateAll(it.JobID, it.Task.Spec, it.Now, it.Candidates)
			}
		}
		for _, i := range group {
			it := items[i]
			row := make([]float64, width)
			for j := range row {
				row[j] = inf
			}
			pair.Now = it.Now
			pair.Task = it.Task
			pair.JobID = it.JobID
			deferCost := inf
			for _, s := range it.Candidates {
				single[0] = s
				pair.Candidates = single
				c, err := m.Inner.ChooseScored(&pair)
				if err != nil {
					// A candidate that cannot be evaluated right now
					// is simply infeasible for this wave; it will be
					// probed again next wave if the item defers.
					continue
				}
				row[colOf[s]] = c.Score
				// Stacking estimate: arriving second on s costs
				// roughly this score plus the task's own service
				// demand there (its completion slips by the overlap
				// with the wave occupant) plus the comparable delay
				// it inflicts on that occupant — the deferred task
				// pays both sides of the interference it chooses over
				// occupying a free server.
				if tc, ok := it.Task.Spec.Cost(s); ok {
					if d := c.Score + 2*tc.Total(); d < deferCost {
						deferCost = d
					}
				}
			}
			row[len(cols)+i] = deferCost
			cost[i] = row
		}
	}

	rowToCol, _ := assign.Solve(cost)
	out := make([]Choice, len(items))
	for i, j := range rowToCol {
		if j == assign.Unassigned || j >= len(cols) {
			continue // deferred to the next wave
		}
		out[i] = Choice{Server: cols[j], Score: cost[i][j], Tie: cost[i][j]}
	}
	return out, nil
}
