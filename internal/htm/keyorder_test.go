package htm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"casched/internal/stats"
	"casched/internal/task"
)

// largePool returns n synthetic server names (task.Synthetic's) and the
// specs a decision draws from. Without memory they are task.Synthetic's
// three families, eleven cost classes each. With memory the specs are
// copies of those that also cover the Table 2 machines given, which the
// memory model then gives their RAM and swap, with footprints from none
// to more than the smallest machine holds.
func largePool(n int, table2 []string) ([]string, []*task.Spec) {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("sv%02d", i)
	}
	var specs []*task.Spec
	for family := 0; family < 3; family++ {
		base := task.Synthetic(family, n)
		if len(table2) == 0 {
			specs = append(specs, base)
			continue
		}
		for k, footprint := range []float64{0, 60, 150} {
			s := &task.Spec{Problem: "large", Variant: 3*family + k, CostOn: make(map[string]task.Cost, n+len(table2)), MemoryMB: footprint}
			for name, c := range base.CostOn {
				s.CostOn[name] = c
			}
			for i, name := range table2 {
				s.CostOn[name] = base.CostOn[names[i%11]]
			}
			specs = append(specs, s)
		}
	}
	return append(names, table2...), specs
}

// pickWinner is what HMCT and MSF place on: the least objective, the
// first in name order of those within the tie tolerance of it.
func pickWinner(obj Objective, preds []Prediction) string {
	best := math.Inf(1)
	for i := range preds {
		best = min(best, obj.value(&preds[i]))
	}
	for i := range preds {
		if obj.value(&preds[i]) <= best+pruneTie {
			return preds[i].Server
		}
	}
	return ""
}

// TestPrunedPassLargePool holds the key-ordered pass against the
// exhaustive one at the scale its gain lives at: 1024 synthetic servers,
// three families of eleven cost classes, a light load with spells where
// arrivals outrun the pool, WithSync re-anchors, servers dropped and
// re-added, and, in the memory run, eight Table 2 machines under the
// memory model beside them. A twin Manager takes the same history and
// answers every decision exhaustively. At every decision the pruned
// result meets the contract against the twin's predictions bit for bit,
// the busy list is in key order with the right counts, and the winner is
// placed on both. Across the run the pass visits a small share of the
// busy traces under MinCompletion: the stop is what cuts the work.
func TestPrunedPassLargePool(t *testing.T) {
	table2 := []string{"artimon", "cabestan", "chamagne", "pulney", "spinnaker", "valette", "xrousse", "zanzibar"}
	for _, memory := range []bool{false, true} {
		t.Run(fmt.Sprintf("memory=%v", memory), func(t *testing.T) {
			opts := []Option{WithSync()}
			var extra []string
			if memory {
				opts = append(opts, WithMemoryModel())
				extra = table2
			}
			names, specs := largePool(1024, extra)
			m, twin := New(names, opts...), New(names, opts...)
			rng := stats.NewRNG(27)
			now := 0.0
			var dropped []string
			var visited, busy, collapsed int
			for id := 0; id < 900; id++ {
				// About 170 busy traces; every third hundred arrivals come
				// five times faster.
				gap := 0.66
				if id/100%3 == 2 {
					gap = 0.13
				}
				now += 2 * gap * rng.Float64()
				switch rng.Intn(24) {
				case 0:
					name := names[rng.Intn(len(names))]
					for _, h := range []*Manager{m, twin} {
						h.DropServer(name)
					}
					dropped = append(dropped, name)
				case 1:
					if len(dropped) > 0 {
						name := dropped[0]
						dropped = dropped[1:]
						for _, h := range []*Manager{m, twin} {
							h.AddServer(name)
						}
					}
				}
				spec := specs[rng.Intn(len(specs))]
				obj := MinCompletion
				if id%4 == 3 {
					obj = MinSumFlow
				}
				before := m.EvalStats().Bounded
				pruned, err := m.Minimizing(obj, pruneTie).EvaluateAll(id, spec, now, m.Candidates(spec))
				full, fullErr := twin.EvaluateAll(id, spec, now, twin.Candidates(spec))
				if fullErr == nil && err != nil {
					t.Fatalf("job %d: pruned pass errors %v, the exhaustive pass none", id, err)
				}
				if fullErr != nil {
					collapsed++
				}
				if err := meetsContract(obj, full, pruned); err != nil {
					t.Fatalf("job %d: %v", id, err)
				}
				if err := checkBusy(m); err != nil {
					t.Fatalf("job %d: %v", id, err)
				}
				if obj == MinCompletion {
					visited += int(m.EvalStats().Bounded - before)
					busy += len(m.busy)
				}
				target := pickWinner(obj, pruned)
				if own := m.Candidates(spec); rng.Intn(10) == 0 {
					// Now and then anywhere, which piles jobs onto a trace and,
					// under the memory model, collapses a Table 2 machine.
					target = own[rng.Intn(len(own))]
					if memory && rng.Intn(2) == 0 {
						target = table2[rng.Intn(len(table2))]
					}
				}
				errA, errB := m.Place(id, spec, now, target), twin.Place(id, spec, now, target)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("job %d on %s: %v against %v", id, target, errA, errB)
				}
				if old := id - rng.Intn(40); old >= 0 && rng.Intn(3) == 0 {
					errA, errB := m.NotifyCompletion(old, now), twin.NotifyCompletion(old, now)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("job %d: re-anchor of %d: %v against %v", id, old, errA, errB)
					}
				}
			}
			t.Logf("MinCompletion decisions visited %d of %d busy traces; %d decisions met a collapsed trace", visited, busy, collapsed)
			if visited*4 > busy {
				t.Errorf("MinCompletion decisions visited %d busy traces of %d: the stop cut less than three in four", visited, busy)
			}
			if memory && collapsed == 0 {
				t.Error("no decision met a collapsed trace")
			}
		})
	}
}

// TestSkippedBaselinesSameBits is the premise of lazy baselines: the
// pruned pass refreshes the baseline of a trace it projects and no other,
// so a busy trace it skips refreshes later, at another instant of its
// clock, and must get the same bits (the split invariance of "Trace
// clock"). A twin whose pruned pass is preceded, at every decision, by a
// refresh of every busy baseline after the advance, as the pass did when
// it bounded every busy trace, takes the same history. Every pruned
// prediction agrees bit for bit, and at checkpoints so do every ready
// time, the ready aggregates and every predicted completion, read on the
// lazy Manager while some of its busy baselines are stale.
func TestSkippedBaselinesSameBits(t *testing.T) {
	sameFloat := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, sync := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", sync), func(t *testing.T) {
			var opts []Option
			if sync {
				opts = append(opts, WithSync())
			}
			names, specs := largePool(256, nil)
			lazy, eager := New(names, opts...), New(names, opts...)
			rng := stats.NewRNG(28)
			now := 0.0
			stale := 0
			check := func(id int) {
				t.Helper()
				lazy.mu.Lock()
				for _, tr := range lazy.busy {
					if tr.baseline == nil || tr.baselineGen != tr.gen {
						stale++
					}
				}
				lazy.mu.Unlock()
				for _, s := range names {
					a, okA := lazy.ProjectedReady(s)
					b, okB := eager.ProjectedReady(s)
					if okA != okB || !sameFloat(a, b) {
						t.Fatalf("job %d: %s ready at %v (lazy), %v (eager)", id, s, a, b)
					}
				}
				a, _ := lazy.MinProjectedReady()
				b, _ := eager.MinProjectedReady()
				if !sameFloat(a, b) {
					t.Fatalf("job %d: least ready time %v (lazy), %v (eager)", id, a, b)
				}
				ra, rb := lazy.ProjectedReadyAll(), eager.ProjectedReadyAll()
				for s, r := range rb {
					if !sameFloat(ra[s], r) {
						t.Fatalf("job %d: %s in the ready snapshot at %v (lazy), %v (eager)", id, s, ra[s], r)
					}
				}
				if !slices.Equal(lazy.Placements(), eager.Placements()) {
					t.Fatalf("job %d: placements differ", id)
				}
				for _, job := range eager.Placements() {
					ca, okA := lazy.PredictedCompletion(job)
					cb, okB := eager.PredictedCompletion(job)
					if okA != okB || !sameFloat(ca, cb) {
						t.Fatalf("job %d: completion of %d %v %v (lazy), %v %v (eager)", id, job, ca, okA, cb, okB)
					}
				}
			}
			for id := 0; id < 1200; id++ {
				gap := 0.45
				if id/150%3 == 2 {
					gap = 0.1
				}
				now += 2 * gap * rng.Float64()
				spec := specs[rng.Intn(len(specs))]
				obj := MinCompletion
				if id%4 == 3 {
					obj = MinSumFlow
				}
				eager.AdvanceTo(now)
				eager.ProjectedReadyAll()
				a, errA := lazy.Minimizing(obj, pruneTie).EvaluateAll(id, spec, now, lazy.Candidates(spec))
				b, errB := eager.Minimizing(obj, pruneTie).EvaluateAll(id, spec, now, eager.Candidates(spec))
				if errA != nil || errB != nil || !samePredictions(a, b) {
					t.Fatalf("job %d: pruned predictions\n lazy  %+v (%v)\n eager %+v (%v)", id, a, errA, b, errB)
				}
				target := pickWinner(obj, a)
				if rng.Intn(5) == 0 {
					target = names[rng.Intn(24)]
				}
				if errA, errB := lazy.Place(id, spec, now, target), eager.Place(id, spec, now, target); errA != nil || errB != nil {
					t.Fatal(errA, errB)
				}
				if old := id - rng.Intn(30); sync && old >= 0 && rng.Intn(3) == 0 {
					errA, errB := lazy.NotifyCompletion(old, now), eager.NotifyCompletion(old, now)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("job %d: re-anchor of %d: %v (lazy), %v (eager)", id, old, errA, errB)
					}
				}
				if id%50 == 49 {
					check(id)
				}
			}
			check(1200)
			t.Logf("%d stale busy baselines met at the checkpoints", stale)
			if stale == 0 {
				t.Error("no checkpoint found a stale busy baseline on the lazy Manager: the case does not exercise skipped refreshes")
			}
		})
	}
}
