package htm

import (
	"math"
	"slices"
	"testing"

	"casched/internal/stats"
	"casched/internal/task"
)

// retentionSpec is solvable on both test servers.
func retentionSpec() *task.Spec {
	return &task.Spec{Problem: "p", Variant: 1, CostOn: map[string]task.Cost{
		"s1": {Input: 1, Compute: 20, Output: 1},
		"s2": {Input: 1, Compute: 30, Output: 1},
	}}
}

// TestRetentionPredictionsUnchanged pins WithRetention's core contract:
// pruning completed records must not move a single prediction. Two
// managers replay the same placement stream — one unbounded, one with a
// tight retention window — and every candidate evaluation along the way
// must agree exactly.
func TestRetentionPredictionsUnchanged(t *testing.T) {
	servers := []string{"s1", "s2"}
	full := New(servers)
	pruned := New(servers, WithRetention(100))
	spec := retentionSpec()

	probe := func(id int, at float64) {
		t.Helper()
		a, err := full.EvaluateAll(id, spec, at, servers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pruned.EvaluateAll(id, spec, at, servers)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("at %.0f: %d vs %d predictions", at, len(a), len(b))
		}
		for i := range a {
			if a[i].Server != b[i].Server ||
				math.Abs(a[i].Completion-b[i].Completion) > 1e-9 ||
				math.Abs(a[i].Perturbation-b[i].Perturbation) > 1e-9 ||
				a[i].Interfered != b[i].Interfered {
				t.Fatalf("at %.0f: prediction %d diverged: %+v vs %+v", at, i, a[i], b[i])
			}
		}
	}

	// A long stream: placements every 40s alternate servers; each task
	// runs ~22-32s, so by the time the window (100s) slides past a task
	// it has long completed.
	for i := 0; i < 40; i++ {
		at := float64(i) * 40
		server := servers[i%2]
		if err := full.Place(i, spec, at, server); err != nil {
			t.Fatal(err)
		}
		if err := pruned.Place(i, spec, at, server); err != nil {
			t.Fatal(err)
		}
		probe(10_000+i, at)
	}

	// Live jobs keep identical projections through both managers.
	for _, id := range pruned.Placements() {
		pa, oka := full.PredictedCompletion(id)
		pb, okb := pruned.PredictedCompletion(id)
		if oka != okb || math.Abs(pa-pb) > 1e-9 {
			t.Errorf("job %d: projection %v,%v vs %v,%v", id, pa, oka, pb, okb)
		}
	}
}

// TestRetentionBoundsHistory verifies the compaction actually happens:
// the pruned manager forgets old completed records (placements and
// per-server job lists stay bounded) while the unbounded one keeps
// everything.
func TestRetentionBoundsHistory(t *testing.T) {
	servers := []string{"s1", "s2"}
	full := New(servers)
	pruned := New(servers, WithRetention(100))
	spec := retentionSpec()
	const n = 60
	for i := 0; i < n; i++ {
		at := float64(i) * 40
		server := servers[i%2]
		if err := full.Place(i, spec, at, server); err != nil {
			t.Fatal(err)
		}
		if err := pruned.Place(i, spec, at, server); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(full.Placements()); got != n {
		t.Fatalf("unbounded manager lost records: %d of %d", got, n)
	}
	got := len(pruned.Placements())
	if got >= n/2 {
		t.Errorf("retention kept %d of %d records, want far fewer", got, n)
	}
	if got == 0 {
		t.Error("retention pruned live jobs")
	}
	for _, name := range servers {
		sim, ok := pruned.Sim(name)
		if !ok {
			t.Fatalf("missing sim %s", name)
		}
		if jobs := len(sim.Jobs()); jobs >= n/2 {
			t.Errorf("%s trace holds %d records, want bounded by the window", name, jobs)
		}
	}
	// A pruned job has no projection anymore; a live one still does.
	if _, ok := pruned.PredictedCompletion(0); ok {
		t.Error("pruned job still has a projection")
	}
	if _, ok := pruned.PredictedCompletion(n - 1); !ok {
		t.Error("live job lost its projection")
	}
}

// wholePoolPrune is retention pruning as it stood before the finished
// list: at most once per quarter-window of trace time, every trace of
// the pool is asked for the records that ended before the window.
func wholePoolPrune(m *Manager, window float64, lastPrune *float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.now-*lastPrune < window/4 {
		return
	}
	*lastPrune = m.now
	for _, tr := range m.ordered {
		for _, id := range tr.sim.PruneCompletedBefore(m.now-window, nil) {
			delete(m.placements, id)
		}
	}
}

// TestRetentionVisitsOnlyFinishedTraces holds the pruning pass, which
// visits only the traces that hold a terminal record, against the
// whole-pool walk over the churn generator: placements, re-anchors
// (records that never went through the clock), joins, drops, drops and
// re-joins, and a memory model under which traces collapse (failed
// records). After every step the two managers retain the same
// placements and the same records per trace, and the list is exactly the
// tracked traces with a record to prune.
func TestRetentionVisitsOnlyFinishedTraces(t *testing.T) {
	const window = 12
	pool := classPools()[3] // repeated+memory
	start := pool.servers[:len(pool.servers)-4]
	m := New(start, WithSync(), WithMemoryModel(), WithRetention(window))
	ref := New(start, WithSync(), WithMemoryModel())
	specs := classSpecs(pool)[:6]
	rng := stats.NewRNG(23)
	now, refPruned := 0.0, 0.0
	listed, collapsed := 0, 0
	for id := 0; id < 1500; id++ {
		now += 0.6 * rng.Float64()
		both := []*Manager{m, ref}
		switch tracked := m.Servers(); rng.Intn(16) {
		case 0:
			name := pool.servers[rng.Intn(len(pool.servers))]
			for _, h := range both {
				h.AddServer(name)
			}
		case 1:
			if len(tracked) > 8 {
				name := tracked[rng.Intn(len(tracked))]
				for _, h := range both {
					h.DropServer(name)
				}
			}
		case 2:
			name := tracked[rng.Intn(len(tracked))]
			for _, h := range both {
				h.DropServer(name)
				h.AddServer(name)
			}
		}
		spec := specs[rng.Intn(len(specs))]
		own := m.Candidates(spec)
		server := own[rng.Intn(len(own))]
		old, reanchor := id-rng.Intn(12), rng.Intn(2) == 0
		for _, h := range both {
			// On a collapsed trace the placement fails, on both alike.
			_ = h.Place(id, spec, now, server)
			if reanchor {
				_ = h.NotifyCompletion(old, now) // not placed, or on a dropped server
			}
		}
		wholePoolPrune(ref, window, &refPruned)

		if got, want := m.Placements(), ref.Placements(); !slices.Equal(got, want) {
			t.Fatalf("job %d: retained placements %v, the whole-pool walk retains %v", id, got, want)
		}
		inList := make(map[*serverTrace]bool, len(m.finished))
		for _, tr := range m.finished {
			if inList[tr] {
				t.Fatalf("job %d: %s listed twice", id, tr.sim.Name())
			}
			inList[tr] = true
		}
		for _, name := range m.Servers() {
			tr, refTr := m.traces[name], ref.traces[name]
			if got, want := tr.sim.SortedIDs(), refTr.sim.SortedIDs(); !slices.Equal(got, want) {
				t.Fatalf("job %d: %s holds records %v, under the whole-pool walk %v", id, name, got, want)
			}
			holds := len(tr.sim.Jobs()) > len(tr.sim.Live())
			if holds != inList[tr] || holds != tr.finished {
				t.Fatalf("job %d: %s holds a terminal record: %v; listed: %v, marked: %v", id, name, holds, inList[tr], tr.finished)
			}
			delete(inList, tr)
			if failed, _ := tr.sim.Collapsed(); failed {
				collapsed++
			}
		}
		if len(inList) != 0 {
			t.Fatalf("job %d: %d listed traces are not tracked", id, len(inList))
		}
		listed += len(m.finished)
	}
	// Jobs on dropped servers keep their placement records, pruned or not.
	if n := len(m.Placements()); n == 0 || n > 1000 {
		t.Errorf("%d placements retained of 1500", n)
	}
	// The point of the list: far fewer visits than the pool has traces.
	if mean := float64(listed) / 1500; mean < 1 || mean > float64(len(start))/2 {
		t.Errorf("%.1f traces listed on average, of %d", mean, len(start))
	}
	if collapsed == 0 {
		t.Error("no trace collapsed: failed records were never pruned")
	}
}
