package htm

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"casched/internal/task"
	"casched/internal/workload"
)

// table1Servers is the two-machine live testbed of the paper's Table 1
// validation runs.
var table1Servers = []string{"spinnaker", "artimon"}

// TestIncrementalMatchesFullReplay replays the Table 1 workload
// (waste-cpu metatask on the two validation servers) through both
// evaluation paths: at every arrival the incremental, concurrent
// EvaluateAll must agree with the full-replay reference EvaluateFull
// within 1e-9 on every candidate, even as placements keep invalidating
// parts of the baseline cache.
func TestIncrementalMatchesFullReplay(t *testing.T) {
	mt := workload.MustGenerate(workload.Set2(120, 15, 7))
	m := New(table1Servers)
	for _, tk := range mt.Tasks {
		preds, err := m.EvaluateAll(tk.ID, tk.Spec, tk.Arrival, table1Servers)
		if err != nil {
			t.Fatalf("task %d: EvaluateAll: %v", tk.ID, err)
		}
		if len(preds) != len(table1Servers) {
			t.Fatalf("task %d: got %d predictions", tk.ID, len(preds))
		}
		best := preds[0]
		for _, p := range preds {
			full, err := m.EvaluateFull(tk.ID, tk.Spec, tk.Arrival, p.Server)
			if err != nil {
				t.Fatalf("task %d: EvaluateFull(%s): %v", tk.ID, p.Server, err)
			}
			if d := math.Abs(p.Completion - full.Completion); d > 1e-9 {
				t.Errorf("task %d on %s: completion %v vs full %v (Δ=%g)",
					tk.ID, p.Server, p.Completion, full.Completion, d)
			}
			if d := math.Abs(p.Perturbation - full.Perturbation); d > 1e-9 {
				t.Errorf("task %d on %s: perturbation %v vs full %v (Δ=%g)",
					tk.ID, p.Server, p.Perturbation, full.Perturbation, d)
			}
			if d := math.Abs(p.Flow - full.Flow); d > 1e-9 {
				t.Errorf("task %d on %s: flow %v vs full %v (Δ=%g)",
					tk.ID, p.Server, p.Flow, full.Flow, d)
			}
			if p.Interfered != full.Interfered {
				t.Errorf("task %d on %s: interfered %d vs full %d",
					tk.ID, p.Server, p.Interfered, full.Interfered)
			}
			if p.Completion < best.Completion {
				best = p
			}
		}
		if err := m.Place(tk.ID, tk.Spec, tk.Arrival, best.Server); err != nil {
			t.Fatalf("task %d: Place: %v", tk.ID, err)
		}
	}
}

// TestEvaluateAllConcurrentWithPlace exercises the Manager from many
// goroutines at once: evaluators race placements and completion
// notifications on a synced trace. Run under -race this pins the
// Manager's thread-safety contract; functionally every evaluation must
// return a coherent prediction set or a surfaced error, never a torn
// one.
func TestEvaluateAllConcurrentWithPlace(t *testing.T) {
	servers := []string{"s1", "s2", "s3", "s4"}
	spec := &task.Spec{Problem: "p", Variant: 1, CostOn: map[string]task.Cost{
		"s1": {Input: 1, Compute: 40, Output: 1},
		"s2": {Input: 1, Compute: 50, Output: 1},
		"s3": {Input: 2, Compute: 60, Output: 1},
		"s4": {Input: 2, Compute: 70, Output: 1},
	}}
	m := New(servers, WithSync())

	const (
		placers    = 2
		evaluators = 4
		perWorker  = 30
	)
	var wg sync.WaitGroup
	errc := make(chan error, placers+evaluators)

	for w := 0; w < placers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				at := float64(i)
				srv := servers[(w+i)%len(servers)]
				if err := m.Place(id, spec, at, srv); err != nil {
					errc <- fmt.Errorf("place %d: %w", id, err)
					return
				}
				if i%3 == 0 {
					// Re-anchor a previously placed job somewhere in
					// the future of its placement.
					if err := m.NotifyCompletion(id, at+100); err != nil {
						errc <- fmt.Errorf("notify %d: %w", id, err)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < evaluators; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := 10_000 + w*perWorker + i
				preds, err := m.EvaluateAll(id, spec, float64(i), servers)
				if err != nil {
					errc <- fmt.Errorf("evaluate %d: %w", id, err)
					return
				}
				if len(preds) != len(servers) {
					errc <- fmt.Errorf("evaluate %d: %d predictions", id, len(preds))
					return
				}
				for _, p := range preds {
					if math.IsNaN(p.Completion) || p.Completion < float64(i) {
						errc <- fmt.Errorf("evaluate %d on %s: bogus completion %v",
							id, p.Server, p.Completion)
						return
					}
				}
				if _, ok := m.PredictedCompletion(w * i); ok {
					_ = ok // racing read; value checked for consistency elsewhere
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
