package agent

import (
	"sort"

	"casched/internal/htm"
	"casched/internal/sched"
	"casched/internal/task"
)

// batchCache is the sched.Evaluator SubmitBatch hands to heuristics:
// it memoizes per-candidate HTM predictions across the batch so k
// simultaneous arrivals cost one evaluation pass instead of k.
//
// The reuse is exact, not approximate. A candidate's prediction is a
// function of its own trace, the task's cost on it and the arrival
// date; placements on *other* servers do not move it. So after each
// commit only the placed server's entry is dropped (invalidate), and a
// later identical (spec, arrival) evaluation re-projects just that one
// server. Specs are compared by pointer: batch members sharing a
// *task.Spec — the workload generators and the grid/live drivers all
// hand out shared specs — hit the cache; distinct pointers are simply
// evaluated independently.
//
// The cache is only sound while the traces cannot change under it:
// SubmitBatch holds the core lock for the whole batch, and every trace
// mutation goes through core methods that take that lock. Predictions
// also depend on the HTM's trace time (a stale arrival is clamped to
// it), which only advances when an evaluation or placement carries a
// later arrival — so the whole cache is flushed whenever the arrival
// changes, keeping cached entries exactly what a direct EvaluateAll
// would return. Within the simultaneous-arrival runs batching targets,
// nothing is lost.
type batchCache struct {
	m       sched.Evaluator
	arrival float64
	primed  bool
	entries map[*task.Spec]map[string]*htm.Prediction
}

func newBatchCache(m sched.Evaluator) *batchCache {
	return &batchCache{m: m, entries: make(map[*task.Spec]map[string]*htm.Prediction)}
}

// EvaluateAll implements sched.Evaluator. A nil cached entry records a
// candidate known not to solve the task, so insolvable servers are not
// re-probed on every batch member. The "known insolvable" markers are
// written only when the evaluation pass succeeded as a whole: on a
// partial failure the failed candidates stay uncached — a transient
// evaluation error must not poison the cache and silently exclude a
// healthy server from every later batch member's candidate set.
func (bc *batchCache) EvaluateAll(id int, spec *task.Spec, arrival float64, candidates []string) ([]htm.Prediction, error) {
	if !bc.primed || arrival != bc.arrival {
		// Arrival changed: the underlying evaluation context (trace
		// time, flow reference) moved, so earlier entries no longer
		// match what the manager would return.
		clear(bc.entries)
		bc.arrival = arrival
		bc.primed = true
	}
	cached, ok := bc.entries[spec]
	if !ok {
		cached = make(map[string]*htm.Prediction, len(candidates))
		bc.entries[spec] = cached
	}
	// With nothing cached (a spec's first batch member) the list goes
	// through as it came: the manager recognises its own candidate index
	// and then resolves no name.
	missing := candidates
	if len(cached) > 0 {
		missing = candidates[:0:0]
		for _, s := range candidates {
			if _, seen := cached[s]; !seen {
				missing = append(missing, s)
			}
		}
	}
	var err error
	if len(missing) > 0 {
		var preds []htm.Prediction
		preds, err = bc.m.EvaluateAll(id, spec, arrival, missing)
		if err == nil {
			// Every candidate evaluated: the still-missing ones are
			// genuinely insolvable, so record that.
			for _, s := range missing {
				cached[s] = nil
			}
		}
		for i := range preds {
			p := preds[i]
			cached[p.Server] = &p
		}
	}
	out := make([]htm.Prediction, 0, len(candidates))
	for _, s := range candidates {
		if p := cached[s]; p != nil {
			out = append(out, *p)
		}
	}
	// Preserve htm.Manager.EvaluateAll's by-server ordering even when
	// the caller hands an unsorted candidate subset (KPB does), so
	// tie-breaking scans see the same sequence as the direct path.
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	if len(out) > 0 {
		// Mirror htm.Manager.EvaluateAll: partial results suppress
		// per-candidate errors (predictAll only fails on empty).
		return out, nil
	}
	return nil, err
}

// ProjectedReady implements sched.Evaluator by delegating: it reads
// the live baseline cache, which placements keep up to date.
func (bc *batchCache) ProjectedReady(server string) (float64, bool) {
	return bc.m.ProjectedReady(server)
}

// invalidate drops every cached prediction for one server after a
// placement mutated its trace.
func (bc *batchCache) invalidate(server string) {
	for _, e := range bc.entries {
		delete(e, server)
	}
}
