package sched

import (
	"fmt"
	"math"
	"testing"

	"casched/internal/htm"
	"casched/internal/stats"
	"casched/internal/task"
)

// scoredHeuristics lists every heuristic expected to implement
// ScoredScheduler.
func scoredHeuristics() []ScoredScheduler {
	return []ScoredScheduler{
		NewMCT(), NewHMCT(), NewMP(), NewMSF(), NewMNI(),
		NewMET(), NewOLB(), NewKPB(), NewSA(),
	}
}

// TestChooseScoredMatchesChoose pins the ScoredScheduler contract: for
// every scored heuristic, ChooseScored picks the same server as Choose
// on an identically prepared context, and the score is finite with
// Tie a sensible secondary.
func TestChooseScoredMatchesChoose(t *testing.T) {
	for _, s := range scoredHeuristics() {
		name := s.Name()
		mkHTM := func() *htm.Manager {
			m := htm.New([]string{"s1", "s2"})
			// An uneven backlog so objectives differ across servers.
			if err := m.Place(900, twoServerSpec(40, 45), 0, "s1"); err != nil {
				t.Fatal(err)
			}
			if err := m.Place(901, twoServerSpec(30, 35), 0, "s1"); err != nil {
				t.Fatal(err)
			}
			return m
		}
		spec := twoServerSpec(20, 26)

		chooseCtx := baseCtx(spec, mkHTM(), 5)
		chooseCtx.Info = fixedInfo{"s1": 2, "s2": 0}
		twin, _ := ByName(name) // fresh instance: SA and friends carry state
		got, err := twin.Choose(chooseCtx)
		if err != nil {
			t.Fatalf("%s: Choose: %v", name, err)
		}

		scoredCtx := baseCtx(spec, mkHTM(), 5)
		scoredCtx.Info = fixedInfo{"s1": 2, "s2": 0}
		choice, err := s.ChooseScored(scoredCtx)
		if err != nil {
			t.Fatalf("%s: ChooseScored: %v", name, err)
		}
		if choice.Server != got {
			t.Errorf("%s: ChooseScored picked %q, Choose picked %q", name, choice.Server, got)
		}
		if math.IsInf(choice.Score, 0) || math.IsNaN(choice.Score) {
			t.Errorf("%s: score = %v", name, choice.Score)
		}
		if math.IsNaN(choice.Tie) {
			t.Errorf("%s: tie = %v", name, choice.Tie)
		}
	}
}

// TestChooseScoredPartitionInvariance pins what the sharded dispatch
// layer relies on: for partition-decomposable heuristics, running
// ChooseScored on disjoint candidate partitions and taking the
// (Score, Tie) minimum reproduces the whole-pool decision.
func TestChooseScoredPartitionInvariance(t *testing.T) {
	servers := []string{"a1", "a2", "b1", "b2"}
	costs := map[string]task.Cost{
		"a1": {Compute: 31}, "a2": {Compute: 24},
		"b1": {Compute: 22}, "b2": {Compute: 37},
	}
	spec := &task.Spec{Problem: "p", Variant: 1, CostOn: costs}
	for _, name := range []string{"MCT", "HMCT", "MP", "MSF", "MNI", "MET", "OLB"} {
		mkHTM := func() *htm.Manager {
			m := htm.New(servers)
			if err := m.Place(900, spec, 0, "b1"); err != nil {
				t.Fatal(err)
			}
			return m
		}
		mkCtx := func(cands []string) *Context {
			return &Context{
				Now:        2,
				Task:       &task.Task{ID: 0, Spec: spec, Arrival: 2},
				JobID:      100,
				Candidates: cands,
				HTM:        mkHTM(),
				Info:       fixedInfo{"a1": 1, "a2": 0, "b1": 0, "b2": 2},
				RNG:        stats.NewRNG(1),
			}
		}

		whole, _ := ByName(name)
		want, err := whole.(ScoredScheduler).ChooseScored(mkCtx(servers))
		if err != nil {
			t.Fatalf("%s: whole pool: %v", name, err)
		}

		var best Choice
		bestOK := false
		for _, part := range [][]string{{"a1", "a2"}, {"b1", "b2"}} {
			s, _ := ByName(name)
			c, err := s.(ScoredScheduler).ChooseScored(mkCtx(part))
			if err != nil {
				t.Fatalf("%s: partition %v: %v", name, part, err)
			}
			if !bestOK || c.Score < best.Score-tieEps ||
				(c.Score <= best.Score+tieEps && c.Tie < best.Tie-tieEps) {
				best, bestOK = c, true
			}
		}
		if best.Server != want.Server {
			t.Errorf("%s: partitioned winner %q (score %.3f), whole-pool %q (score %.3f)",
				name, best.Server, best.Score, want.Server, want.Score)
		}
	}
}

// TestEvaluatorForDeclaredObjective: only the heuristics whose argmin
// reads a single bounded objective declare one, wrappers forward or
// inherit it, and everything else gets the exhaustive evaluator.
func TestEvaluatorForDeclaredObjective(t *testing.T) {
	type embedded struct{ *MSF }
	cases := []struct {
		s    Scheduler
		want htm.Objective
	}{
		{NewHMCT(), htm.MinCompletion},
		{NewMSF(), htm.MinSumFlow},
		{&MemoryAware{Inner: NewHMCT()}, htm.MinCompletion},
		{embedded{NewMSF()}, htm.MinSumFlow},
		{NewMP(), htm.NoObjective},
		{NewMNI(), htm.NoObjective},
		{NewKPB(), htm.NoObjective},
		{NewRandom(), htm.NoObjective},
	}
	m := htm.New([]string{"s1"})
	for _, c := range cases {
		z, ok := EvaluatorFor(c.s, m).(*htm.Minimizer)
		if !ok || z.Manager != m || z.Objective != c.want || z.Tie != tieEps {
			t.Errorf("%s: evaluator %+v, want objective %d over the manager with tie %g", c.s.Name(), z, c.want, tieEps)
		}
	}
}

// fixedEvaluator answers every EvaluateAll with a copy of its list.
type fixedEvaluator []htm.Prediction

func (f fixedEvaluator) EvaluateAll(int, *task.Spec, float64, []string) ([]htm.Prediction, error) {
	return append([]htm.Prediction(nil), f...), nil
}

func (f fixedEvaluator) ProjectedReady(string) (float64, bool) { return 0, false }

// TestObjectiveHeuristicsPickFirstByName guards the premise of the HTM's
// pruned pass answering once per idle class: a heuristic that declares an
// objective takes the first in name order among equal values, so a
// later-named prediction with the same bits as an earlier one can never
// be its choice, and dropping it changes nothing. For every registry
// heuristic that declares one, over seeded lists in name order whose
// values tie exactly and within tieEps, in both objectives and the
// completion date, the Choice is the same with the later-named copies in
// the list and without them.
func TestObjectiveHeuristicsPickFirstByName(t *testing.T) {
	var heuristics []ScoredScheduler
	for _, s := range All() {
		if objectiveOf(s) != htm.NoObjective {
			heuristics = append(heuristics, s.(ScoredScheduler))
		}
	}
	if len(heuristics) < 2 {
		t.Fatalf("%d heuristics declare an objective, want HMCT and MSF at least", len(heuristics))
	}
	rng := stats.NewRNG(34)
	// Values a hair apart, so that ties are exact and within tieEps.
	level := func() float64 { return 100 + float64(rng.Intn(3)) + float64(rng.Intn(3))*0.4*tieEps }
	copies := 0
	for trial := 0; trial < 2000; trial++ {
		var with, without []htm.Prediction
		for i := 0; i < 2+rng.Intn(12); i++ {
			name := fmt.Sprintf("s%02d", i)
			if len(without) > 0 && rng.Intn(2) == 0 {
				p := without[rng.Intn(len(without))]
				p.Server = name
				with = append(with, p)
				copies++
				continue
			}
			completion := level()
			p := htm.Prediction{Server: name, Completion: completion, Flow: completion - 90,
				Perturbation: level() - 100, Interfered: rng.Intn(2)}
			with, without = append(with, p), append(without, p)
		}
		for _, s := range heuristics {
			choose := func(preds []htm.Prediction) Choice {
				ctx := &Context{Now: 90, Task: &task.Task{Spec: &task.Spec{Problem: "p"}, Arrival: 90},
					HTM: fixedEvaluator(preds), RNG: stats.NewRNG(1)}
				c, err := s.ChooseScored(ctx)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				return c
			}
			if a, b := choose(with), choose(without); a != b {
				t.Fatalf("trial %d, %s: %+v with the copies, %+v without\n with    %+v\n without %+v", trial, s.Name(), a, b, with, without)
			}
		}
	}
	if copies == 0 {
		t.Fatal("no list held a copy")
	}
}
