package htm

import (
	"math"
	"testing"

	"casched/internal/stats"
	"casched/internal/task"
)

// pruneTie is the heuristics' tie tolerance (sched.tieEps).
const pruneTie = 1e-9

// pruneCase is one decision on a generated Manager: the arriving spec,
// its arrival date and the candidate list.
type pruneCase struct {
	m          *Manager
	spec       *task.Spec
	arrival    float64
	candidates []string
}

// buildPruneCase decodes a byte string into a Manager with a history and
// one arriving task. The byte alphabet is chosen so that short inputs
// already reach the states the bound has to survive: placements at the
// same instant as the evaluation (waiting jobs), jobs caught in their
// input, compute and output phases, input and output costs as large as
// the computation (link sharing), zero-cost phases, the memory model
// with footprints that thrash and collapse the Table 2 servers, WithSync
// re-anchors and DropServer. Exhausted input reads as zeros.
func buildPruneCase(data []byte) pruneCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	flags := next()
	memory, sync := flags&1 != 0, flags&2 != 0
	// With the memory model the names must be Table 2 machines, whose
	// RAM the HTM then models (valette: 128+126 MB, cabestan: 192+400).
	servers := []string{"s0", "s1", "s2", "s3"}
	if memory {
		servers = []string{"artimon", "cabestan", "pulney", "valette"}
	}
	var opts []Option
	if memory {
		opts = append(opts, WithMemoryModel())
	}
	if sync {
		opts = append(opts, WithSync())
	}
	m := New(servers, opts...)

	links := []float64{0, 0, 0.5, 3, 20}
	computes := []float64{0, 1, 7, 20, 60}
	footprints := []float64{0, 0, 40, 120, 300}
	cost := func() task.Cost {
		a, b := next(), next()
		return task.Cost{Input: links[a%5], Compute: computes[b%5], Output: links[(a/5+b/5)%5]}
	}
	spec := func() *task.Spec {
		s := &task.Spec{Problem: "p", CostOn: map[string]task.Cost{}, MemoryMB: footprints[next()%5]}
		for _, name := range servers {
			s.CostOn[name] = cost()
		}
		return s
	}
	gaps := []float64{0, 0, 0.25, 2, 9, 40}
	now := 0.0
	placed := 0
	for ops := next() % 32; ops > 0; ops-- {
		op := next()
		now += gaps[(op>>4)%6]
		switch op % 8 {
		case 5:
			if placed > 0 {
				_ = m.NotifyCompletion(next()%placed, now) // unknown or failed jobs: no re-anchor
			}
		case 6:
			if op>>7 == 1 {
				m.DropServer(servers[next()%4])
			}
		case 7:
			m.AdvanceTo(now)
		default:
			// A placement on a collapsed trace fails; the history simply
			// lacks that job.
			if m.Place(placed, spec(), now, servers[op%4]) == nil {
				placed++
			}
		}
	}
	now += gaps[next()%6]
	return pruneCase{m: m, spec: spec(), arrival: now, candidates: servers}
}

// boundsAt returns the lower bound lowerBound proves for every tracked
// candidate at the case's arrival, computed the way the pruned pass
// does: after the trace clock advanced, from the live jobs in place.
func (c pruneCase) boundsAt(obj Objective) map[string]float64 {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	arrival := c.m.advanceLocked(c.arrival)
	out := make(map[string]float64)
	for _, s := range c.candidates {
		if tr, ok := c.m.traces[s]; ok {
			out[s] = lowerBound(obj, tr, c.spec.CostOn[s], c.spec.MemoryMB, arrival)
		}
	}
	return out
}

// checkPruneCase is the property behind pruning, for both objectives:
// the bound never exceeds the projected objective, and the pruned pass
// returns exactly the exhaustive predictions of a candidate subset that
// holds everything within the tie tolerance of the minimum.
func checkPruneCase(t *testing.T, c pruneCase) {
	t.Helper()
	for _, obj := range []Objective{MinCompletion, MinSumFlow} {
		bounds := c.boundsAt(obj)
		full, _ := c.m.EvaluateAll(1<<20, c.spec, c.arrival, c.candidates)
		pruned, _ := c.m.Minimizing(obj, pruneTie).EvaluateAll(1<<20, c.spec, c.arrival, c.candidates)

		best := math.Inf(1)
		byServer := make(map[string]Prediction, len(full))
		for _, p := range full {
			byServer[p.Server] = p
			v := obj.value(&p)
			if b := bounds[p.Server]; b > v {
				t.Errorf("objective %d on %s: bound %.12g exceeds the projected objective %.12g (%+v)",
					obj, p.Server, b, v, p)
			}
			if v < best {
				best = v
			}
		}
		kept := make(map[string]bool, len(pruned))
		for i, p := range pruned {
			if i > 0 && pruned[i-1].Server >= p.Server {
				t.Errorf("objective %d: pruned predictions out of server order at %d", obj, i)
			}
			if want, ok := byServer[p.Server]; !ok || !samePrediction(want, p) {
				t.Errorf("objective %d on %s: pruned prediction %+v, exhaustive %+v", obj, p.Server, p, want)
			}
			kept[p.Server] = true
		}
		for _, p := range full {
			if obj.value(&p) <= best+pruneTie && !kept[p.Server] {
				t.Errorf("objective %d: %s is within the tie tolerance of the minimum %.12g but was pruned (%+v)",
					obj, p.Server, best, p)
			}
		}
	}
}

// samePrediction compares two EvaluateAll predictions bit for bit.
func samePrediction(a, b Prediction) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Server == b.Server && a.Interfered == b.Interfered && same(a.Completion, b.Completion) &&
		same(a.Flow, b.Flow) && same(a.Perturbation, b.Perturbation)
}

// TestPruneBoundProperty runs the property over seeded random byte
// strings, long enough to fill traces with a dozen live jobs.
func TestPruneBoundProperty(t *testing.T) {
	rng := stats.NewRNG(20260928)
	for i := 0; i < 4000; i++ {
		data := make([]byte, 24+rng.Intn(360))
		for k := range data {
			data[k] = byte(rng.Intn(256))
		}
		// Spread the four option combinations evenly.
		data[0] = byte(i)
		checkPruneCase(t, buildPruneCase(data))
		if t.Failed() {
			t.Fatalf("case %d failed: %x", i, data)
		}
	}
}

// TestPruneBoundOutputLink pins the case that rules out the plain flow
// bound for MSF. A (5 s of compute left, 5 s of output) and B (output
// only) would share the output link; the new job N delays A on the CPU
// until B has left the link, so B finishes 5 s earlier than without N
// and the sum-flow increase (5) is below N's own flow (10).
func TestPruneBoundOutputLink(t *testing.T) {
	on := func(c task.Cost) *task.Spec {
		return &task.Spec{Problem: "p", CostOn: map[string]task.Cost{"s": c}}
	}
	m := New([]string{"s"})
	if err := m.Place(1, on(task.Cost{Compute: 15, Output: 5}), 0, "s"); err != nil {
		t.Fatal(err)
	}
	if err := m.Place(2, on(task.Cost{Output: 15}), 5, "s"); err != nil {
		t.Fatal(err)
	}
	c := pruneCase{m: m, spec: on(task.Cost{Compute: 5}), arrival: 10, candidates: []string{"s"}}
	p, err := m.Evaluate(3, c.spec, c.arrival, "s")
	if err != nil {
		t.Fatal(err)
	}
	if p.Flow != 10 || p.Perturbation != -5 {
		t.Fatalf("flow %g, perturbation %g; want 10 and -5", p.Flow, p.Perturbation)
	}
	checkPruneCase(t, c)
}

// TestPrunedPassSkipsProjections: on a pool where one server is idle
// and the rest are busy with long jobs, the pruned pass projects a
// handful of candidates, and the counters say so.
func TestPrunedPassSkipsProjections(t *testing.T) {
	servers := make([]string, 64)
	costs := make(map[string]task.Cost, len(servers))
	for i := range servers {
		servers[i] = string(rune('a'+i/26)) + string(rune('a'+i%26))
		costs[servers[i]] = task.Cost{Input: 0.5, Compute: 40 + float64(i%7), Output: 0.2}
	}
	spec := &task.Spec{Problem: "p", CostOn: costs}
	m := New(servers)
	for i, s := range servers[1:] {
		if err := m.Place(i, spec, 0, s); err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range []Objective{MinCompletion, MinSumFlow} {
		before := m.EvalStats()
		preds, err := m.Minimizing(obj, pruneTie).EvaluateAll(1000, spec, 10, servers)
		if err != nil {
			t.Fatal(err)
		}
		after := m.EvalStats()
		if got := after.Candidates - before.Candidates; got != 64 {
			t.Errorf("objective %d: %d candidates counted, want 64", obj, got)
		}
		if got := after.Projections - before.Projections; got != uint64(len(preds)) || got > 4 {
			t.Errorf("objective %d: %d projections for %d predictions, want the same and at most 4", obj, got, len(preds))
		}
		if len(preds) == 0 || preds[0].Server != servers[0] {
			t.Errorf("objective %d: idle server %s missing from %+v", obj, servers[0], preds)
		}
	}
}

// FuzzPruneBound runs the property on fuzzer-chosen (trace, cost) bytes.
func FuzzPruneBound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 7, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 33, 65, 129, 200, 250})
	f.Add([]byte{3, 31, 0, 9, 9, 9, 16, 8, 8, 8, 32, 7, 7, 7, 5, 0, 134, 2, 48, 6, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip()
		}
		checkPruneCase(t, buildPruneCase(data))
	})
}
