package htm

import (
	"fmt"
	"math"
	"testing"

	"casched/internal/stats"
	"casched/internal/task"
)

// checkBelow is the contract of a pass run below a ceiling, on one
// generated case and for both objectives: with m the least objective of
// the exhaustive predictions, the pass answers ErrBeaten, with no
// prediction, exactly when m exceeds ceiling + tie, and otherwise meets
// the plain pass's contract (every candidate within tie of m present, bit
// for bit). Each answer moves EvalStats.Beaten by one or not at all,
// accordingly. The ceilings sit around m and tie below every objective,
// where the reach of ceiling + 2·tie decides what is projected. It
// returns how many passes were beaten and how many were not.
func checkBelow(c pruneCase, tie float64) (beaten, exact int, err error) {
	for _, obj := range []Objective{MinCompletion, MinSumFlow} {
		full, _ := c.m.EvaluateAll(1<<20, c.spec, c.arrival, c.candidates)
		if len(full) == 0 {
			continue
		}
		least := math.Inf(1)
		for _, p := range full {
			least = min(least, obj.value(&p))
		}
		if math.IsInf(least, 1) {
			continue
		}
		ceilings := []float64{math.Inf(1), least - 2*tie, least - tie, least - tie/2, least, least + tie}
		for _, p := range full {
			v := obj.value(&p)
			ceilings = append(ceilings, v-tie, v-1.5*tie, math.Nextafter(v-tie, math.Inf(-1)))
		}
		for _, list := range [][]string{c.candidates, c.m.Candidates(c.spec)} {
			for _, ceiling := range ceilings {
				z := c.m.Minimizing(obj, tie).Below(ceiling)
				before := c.m.EvalStats().Beaten
				pruned, perr := z.EvaluateAll(1<<20, c.spec, c.arrival, list)
				counted := c.m.EvalStats().Beaten - before
				if least > ceiling+tie {
					if perr != ErrBeaten || len(pruned) != 0 || counted != 1 {
						return beaten, exact, fmt.Errorf("objective %d, ceiling %.17g, tie %g: least objective %.17g is out of reach, got %d predictions, error %v, beaten counted %d",
							obj, ceiling, tie, least, len(pruned), perr, counted)
					}
					beaten++
					continue
				}
				if perr == ErrBeaten || counted != 0 {
					return beaten, exact, fmt.Errorf("objective %d, ceiling %.17g, tie %g: least objective %.17g is within reach, got ErrBeaten (counted %d)",
						obj, ceiling, tie, least, counted)
				}
				if err := meetsContractTie(obj, tie, full, pruned); err != nil {
					return beaten, exact, fmt.Errorf("ceiling %.17g, tie %g: %w", ceiling, tie, err)
				}
				exact++
			}
		}
	}
	return beaten, exact, nil
}

// TestMinimizerBelowContract runs checkBelow over seeded generated cases
// (buildPruneCase: busy and idle traces, every job state, both memory
// modes, re-anchors, drops), at the heuristics' tie and at a tie of
// 0.75 s. At 1e-9 the bound's own slack (3.2e-8 at the least) hides the
// difference between a reach of ceiling + tie and ceiling + 2·tie; at
// 0.75 s it does not, so a pass whose incumbent started at the ceiling
// instead of ceiling + tie drops candidates within tie of the minimum.
func TestMinimizerBelowContract(t *testing.T) {
	rng := stats.NewRNG(20261017)
	var beaten, exact int
	for i := 0; i < 1500; i++ {
		data := make([]byte, 24+rng.Intn(240))
		for k := range data {
			data[k] = byte(rng.Intn(256))
		}
		data[0] = byte(i)
		for _, tie := range []float64{pruneTie, 0.75} {
			b, e, err := checkBelow(buildPruneCase(data), tie)
			if err != nil {
				t.Fatalf("case %d (%x): %v", i, data, err)
			}
			beaten += b
			exact += e
		}
	}
	if beaten < 1000 || exact < 1000 {
		t.Errorf("%d passes beaten and %d within reach, want 1000 of each", beaten, exact)
	}
}

// TestMinimizerBelowIgnoredWithoutObjective pins that a ceiling means
// nothing to the exhaustive surface: NoObjective evaluates every
// candidate and never answers ErrBeaten.
func TestMinimizerBelowIgnoredWithoutObjective(t *testing.T) {
	m := New([]string{"s0", "s1"})
	spec := &task.Spec{Problem: "p", CostOn: map[string]task.Cost{"s0": {Compute: 5}, "s1": {Compute: 9}}}
	z := m.Minimizing(NoObjective, pruneTie).Below(math.Inf(-1))
	preds, err := z.EvaluateAll(1, spec, 0, m.Candidates(spec))
	if err != nil || len(preds) != 2 {
		t.Fatalf("got %d predictions, error %v; want both, no error", len(preds), err)
	}
	if st := m.EvalStats(); st.Beaten != 0 {
		t.Errorf("Beaten = %d, want 0", st.Beaten)
	}
}
