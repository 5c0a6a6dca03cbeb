package main

import (
	"fmt"
	"math"

	"casched/internal/htm"
)

// checkSamples is how many arrivals the decision checks sample.
const checkSamples = 64

// closeEnough compares two experiment dates: 1e-9 s, widened for the
// rounding of dates that have grown large by the end of a long window.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9+1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// objective is the quantity the workload's heuristic minimises.
func objective(heuristic string, p htm.Prediction) float64 {
	if heuristic == "MSF" {
		return p.SumFlowObjective()
	}
	return p.Completion
}

// checkDecisions continues the driver's stream for checkSamples
// arrivals. Before each is placed, every core is asked for its winner
// without committing, and two things must hold on that core's own trace
// manager: no candidate of an independent EvaluateAll beats the winner
// on the heuristic's objective, and the incremental Evaluate of the
// winner equals the full-replay EvaluateFull (the paper's claim that the
// HTM's incremental projection matches replaying the trace).
func checkDecisions(dr *driver) error {
	wl := dr.d.wl
	for n := 0; n < checkSamples; n++ {
		dr.generate()
		req := dr.reqs[0]
		for sh, core := range dr.d.cores {
			cand, err := core.Evaluate(req)
			if err != nil {
				return fmt.Errorf("check %d: shard %d evaluate: %w", n, sh, err)
			}
			m := core.HTM()
			preds, err := m.EvaluateAll(req.JobID, req.Spec, req.Arrival, core.Servers())
			if err != nil {
				return fmt.Errorf("check %d: shard %d evaluate-all: %w", n, sh, err)
			}
			best := math.Inf(1)
			for _, p := range preds {
				best = math.Min(best, objective(wl.Heuristic, p))
			}
			if cand.Score > best && !closeEnough(cand.Score, best) {
				return fmt.Errorf("check %d: shard %d chose %s with objective %.9f, but a candidate reaches %.9f",
					n, sh, cand.Server, cand.Score, best)
			}
			inc, err := m.Evaluate(req.JobID, req.Spec, req.Arrival, cand.Server)
			if err != nil {
				return fmt.Errorf("check %d: shard %d evaluate %s: %w", n, sh, cand.Server, err)
			}
			full, err := m.EvaluateFull(req.JobID, req.Spec, req.Arrival, cand.Server)
			if err != nil {
				return fmt.Errorf("check %d: shard %d evaluate-full %s: %w", n, sh, cand.Server, err)
			}
			if !closeEnough(inc.Completion, full.Completion) ||
				math.Abs(inc.Perturbation-full.Perturbation) > 1e-9+1e-12*math.Abs(full.Completion) {
				return fmt.Errorf("check %d: shard %d server %s: incremental (completion %.9f, perturbation %.9f) differs from full replay (%.9f, %.9f)",
					n, sh, cand.Server, inc.Completion, inc.Perturbation, full.Completion, full.Perturbation)
			}
		}
		if _, failed := dr.submit(); failed > 0 {
			return fmt.Errorf("check %d: decision failed", n)
		}
	}
	return nil
}

// samePlacements compares the placement sequences of two deployments
// given the same requests.
func samePlacements(want, got []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("replay placed %d tasks, the measured deployment %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("replay diverges at decision %d: %s, the measured deployment chose %s", i, got[i], want[i])
		}
	}
	return nil
}
