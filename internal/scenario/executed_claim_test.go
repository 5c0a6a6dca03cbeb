package scenario

import (
	"fmt"
	"testing"

	"casched/internal/grid"
	"casched/internal/metrics"
	"casched/internal/sched"
	"casched/internal/workload"
)

// TestExecutedSumFlowClaim pins the paper's headline on executed
// completions rather than HTM-simulated ones: grid.Run executes every
// placement with 3% seeded noise on the nominal costs and
// metrics.Compute scores the tasks as they finished. On one core over
// testbed(2) (8 servers), Set2 of 300 tasks at mean inter-arrival 6 s
// and 2 s, seeds 11–13, MSF's executed sum-flow, makespan and
// max-stretch are below MCT's in all six cells. HMCT does not hold the
// claim everywhere: its sum-flow is above MCT's in all three cells at
// D = 6 s and its max-stretch in two cells. Its departures are listed
// in hmctDeparts and checked as listed, so a change in either
// direction shows.
func TestExecutedSumFlowClaim(t *testing.T) {
	hmctDeparts := map[string]bool{
		"D=6, seed 11, sum-flow":    true, // 123.2k against 122.1k (+0.9%)
		"D=6, seed 12, sum-flow":    true, // 90.7k against 87.6k (+3.6%)
		"D=6, seed 13, sum-flow":    true, // 61.2k against 55.8k (+9.8%)
		"D=6, seed 13, max-stretch": true, // 11.39 against 10.76 (+5.9%)
		"D=2, seed 12, max-stretch": true, // 56.53 against 56.21 (+0.6%)
	}
	names, rewrite := testbed(2)
	servers := make([]grid.ServerConfig, len(names))
	for i, n := range names {
		servers[i] = grid.ServerConfig{Name: n}
	}
	for _, d := range []float64{6, 2} {
		for seed := uint64(11); seed <= 13; seed++ {
			mt := workload.MustGenerate(workload.Set2(300, d, seed))
			for _, tk := range mt.Tasks {
				tk.Spec = rewrite(tk.Spec)
			}
			rep := map[string]metrics.Report{}
			for _, h := range []string{"MCT", "HMCT", "MSF"} {
				s, err := sched.ByName(h)
				if err != nil {
					t.Fatal(err)
				}
				res, err := grid.Run(grid.Config{Servers: servers, Scheduler: s, Seed: seed, NoiseSigma: 0.03}, mt)
				if err != nil {
					t.Fatal(err)
				}
				if rep[h] = metrics.Compute(h, res.Tasks); rep[h].Completed != mt.Len() {
					t.Fatalf("D=%g, seed %d, %s: %d of %d tasks completed", d, seed, h, rep[h].Completed, mt.Len())
				}
			}
			mct := rep["MCT"]
			for _, m := range []struct {
				name string
				of   func(metrics.Report) float64
			}{
				{"sum-flow", func(r metrics.Report) float64 { return r.SumFlow }},
				{"makespan", func(r metrics.Report) float64 { return r.Makespan }},
				{"max-stretch", func(r metrics.Report) float64 { return r.MaxStretch }},
			} {
				cell := fmt.Sprintf("D=%g, seed %d, %s", d, seed, m.name)
				msf, hmct, base := m.of(rep["MSF"]), m.of(rep["HMCT"]), m.of(mct)
				t.Logf("%s: MCT %.6g, HMCT %.6g, MSF %.6g", cell, base, hmct, msf)
				if !(msf < base) {
					t.Errorf("%s: MSF's executed %.6g is not below MCT's %.6g", cell, msf, base)
				}
				if departs := !(hmct < base); departs != hmctDeparts[cell] {
					t.Errorf("%s: HMCT %.6g against MCT %.6g; listed as a departure: %v", cell, hmct, base, hmctDeparts[cell])
				}
			}
		}
	}
}
