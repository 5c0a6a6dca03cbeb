package htm

import (
	"math"
	"testing"

	"casched/internal/task"
)

// TestArrivalShiftSlope refutes the lemma a per-trace memo bound would
// rest on: that with the live set fixed, delaying an arrival by δ lowers
// the MSF objective by at most (live+1)·δ, so that F(a+δ) ≥ F(a) −
// (live+1)·δ. One live job J computes alone, with r = 1 s of compute
// left at a and 5 s of output after it; the newcomer N costs 3 s of
// compute and 10 s of output. N shares the CPU with J until J's compute
// ends (at a + 2r), computes alone until a + r + 3, and then shares the
// output link with the rest of J's output, which delays J there by
// about as much as it delayed J on the CPU. Both of J's delays and N's
// own flow then shrink with r, which falls by δ as a rises by δ: in
// closed form F = Σπ + flow = 4r + 2·5 − 3 + 10 while the two overlap,
// so F falls at 4·δ, twice the (live+1)·δ = 2·δ the lemma allows. The
// trace's generation does not move between the two evaluations: this is
// exactly the same-generation pair a memo would have served.
func TestArrivalShiftSlope(t *testing.T) {
	m := New([]string{"s0"})
	placed := &task.Spec{Problem: "j", CostOn: map[string]task.Cost{"s0": {Compute: 4, Output: 5}}}
	if err := m.Place(1, placed, 0, "s0"); err != nil {
		t.Fatal(err)
	}
	newcomer := &task.Spec{Problem: "n", CostOn: map[string]task.Cost{"s0": {Compute: 3, Output: 10}}}
	objective := func(arrival float64) float64 {
		p, err := m.Evaluate(2, newcomer, arrival, "s0")
		if err != nil {
			t.Fatal(err)
		}
		return p.SumFlowObjective()
	}
	m.mu.Lock()
	gen := m.traces["s0"].gen
	m.mu.Unlock()
	const a, delta, live = 3.0, 0.5, 1
	before, after := objective(a), objective(a+delta)
	m.mu.Lock()
	moved := m.traces["s0"].gen != gen
	m.mu.Unlock()
	if moved {
		t.Fatal("the trace's generation moved between the two evaluations")
	}
	// r = 1 at a, 0.5 at a+δ: F = 4r + 17.
	if math.Abs(before-21) > 1e-9 || math.Abs(after-19) > 1e-9 {
		t.Fatalf("F(a) = %v, F(a+δ) = %v; want 21 and 19", before, after)
	}
	slope := (before - after) / delta
	if slope <= live+1 {
		t.Fatalf("F falls at %v·δ, within the (live+1)·δ = %d·δ the lemma claims", slope, live+1)
	}
	t.Logf("one live job: F falls at %.3g·δ, the lemma allows %d·δ", slope, live+1)
}
