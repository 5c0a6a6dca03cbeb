package scenario

import (
	"fmt"
	"math"
	"testing"

	"casched/internal/workload"
)

// TestMSFSumFlowClaim pins the paper's sum-flow claim for MSF against
// HMCT on the Set2 workload over the scaled testbed: 8 servers at mean
// inter-arrival 6 s and 2 s, and 128 servers at the same load per
// server (0.375 s and 0.125 s), seeds 11–13. In every cell MSF's
// HTM-simulated sum-flow (sumFlowOf) is below HMCT's, on one core and on
// a 4-shard cluster, and the cluster's sum-flow equals the core's bit
// for bit: the sharded fan-out, which evaluates each shard below the
// best score already found, places exactly as the core does. MCT's leg
// of the claim cannot be read this way: a heuristic without an HTM has
// no final projections.
func TestMSFSumFlowClaim(t *testing.T) {
	for _, cell := range []struct {
		servers int
		d       float64
	}{{8, 6}, {8, 2}, {128, 0.375}, {128, 0.125}} {
		names, rewrite := testbed(cell.servers / 4)
		for seed := uint64(11); seed <= 13; seed++ {
			mt := workload.MustGenerate(workload.Set2(300, cell.d, seed))
			for _, tk := range mt.Tasks {
				tk.Spec = rewrite(tk.Spec)
			}
			reqs := requests(mt)
			flow := map[string]map[Shape]float64{}
			for _, h := range []string{"HMCT", "MSF"} {
				flow[h] = map[Shape]float64{}
				for _, shape := range []Shape{ShapeCore, ShapeCluster} {
					eng, err := newEngine(shape, engineConfig{heuristic: h, seed: seed, width: 4}, names)
					if err != nil {
						t.Fatal(err)
					}
					if err := runStream(eng, reqs); err != nil {
						t.Fatal(err)
					}
					flow[h][shape] = sumFlowOf(eng, mt)
				}
			}
			name := fmt.Sprintf("%d servers, D=%g, seed %d", cell.servers, cell.d, seed)
			for _, shape := range []Shape{ShapeCore, ShapeCluster} {
				if msf, hmct := flow["MSF"][shape], flow["HMCT"][shape]; !(msf < hmct) {
					t.Errorf("%s, %s: MSF sum-flow %.6g is not below HMCT's %.6g", name, shape, msf, hmct)
				}
			}
			for _, h := range []string{"HMCT", "MSF"} {
				core, cl := flow[h][ShapeCore], flow[h][ShapeCluster]
				if math.Float64bits(core) != math.Float64bits(cl) {
					t.Errorf("%s, %s: cluster sum-flow %.17g, core %.17g", name, h, cl, core)
				}
			}
			t.Logf("%s: MSF/HMCT sum-flow %.4f (core %.6g / %.6g)", name,
				flow["MSF"][ShapeCore]/flow["HMCT"][ShapeCore], flow["MSF"][ShapeCore], flow["HMCT"][ShapeCore])
		}
	}
}
