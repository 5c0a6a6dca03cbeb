package scenario

import (
	"fmt"
	"math"
	"testing"

	"casched/internal/workload"
)

// TestMSFSumFlowClaim pins the paper's sum-flow claim for MSF against
// HMCT on the Set2 workload over the scaled testbed: 8 servers at mean
// inter-arrival 6 s and 2 s, 128 servers at the same load per server
// (0.375 s and 0.125 s), and 1024 servers at 0.047 s and 0.0156 s, the
// light regime where most candidates are idle, seeds 11–13. In every cell
// but those listed in ties MSF's HTM-simulated sum-flow (sumFlowOf) is
// below HMCT's, on one core, on a 4-shard cluster and on an in-process
// federation of 4 members with fresh routing. The ties depart from the
// claim: at 1024 servers and D = 0.0156 every task lands on an idle
// server under both heuristics, and their sum-flows are equal to the bit.
// The cluster's and the federation's sum-flows equal the core's bit for
// bit in every cell: the sharded fan-out, which evaluates each shard
// below the best score already found, and the federation's fan-out, which
// evaluates every member plainly, place exactly as the core does. MCT's leg of the
// claim cannot be read this way: a heuristic without an HTM has no final
// projections. TestExecutedSumFlowClaim reads it on executed completions.
func TestMSFSumFlowClaim(t *testing.T) {
	ties := map[string]bool{
		"1024 servers, D=0.0156, seed 11": true,
		"1024 servers, D=0.0156, seed 12": true,
		"1024 servers, D=0.0156, seed 13": true,
	}
	shapes := []Shape{ShapeCore, ShapeCluster, ShapeFederation}
	for _, cell := range []struct {
		servers int
		d       float64
	}{{8, 6}, {8, 2}, {128, 0.375}, {128, 0.125}, {1024, 0.047}, {1024, 0.0156}} {
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
				for _, shape := range shapes {
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
			for _, shape := range shapes {
				msf, hmct := flow["MSF"][shape], flow["HMCT"][shape]
				if ties[name] && math.Float64bits(msf) != math.Float64bits(hmct) {
					t.Errorf("%s, %s: MSF sum-flow %.17g, HMCT's %.17g: recorded as a tie", name, shape, msf, hmct)
				}
				if !ties[name] && !(msf < hmct) {
					t.Errorf("%s, %s: MSF sum-flow %.6g is not below HMCT's %.6g", name, shape, msf, hmct)
				}
			}
			for _, h := range []string{"HMCT", "MSF"} {
				for _, shape := range shapes[1:] {
					if core, sf := flow[h][ShapeCore], flow[h][shape]; math.Float64bits(core) != math.Float64bits(sf) {
						t.Errorf("%s, %s: %s sum-flow %.17g, core %.17g", name, h, shape, sf, core)
					}
				}
			}
			t.Logf("%s: MSF/HMCT sum-flow %.6f (core %.6g / %.6g)", name,
				flow["MSF"][ShapeCore]/flow["HMCT"][ShapeCore], flow["MSF"][ShapeCore], flow["HMCT"][ShapeCore])
		}
	}
}

// TestMSFSumFlowClaimBatch is the same claim on the batch shape: Set2,
// 300 tasks, whose arrivals come in same-date bursts of 16 (each task is
// dated at the first of its burst), decided by SubmitBatch on one core
// and on a 4-shard cluster, which routes each burst whole to a shard by
// power of two choices. The core's greedy SubmitBatch places exactly as
// sequential Submit does, so their sum-flows are equal bit for bit. MSF's
// sum-flow is below HMCT's in every cell but those listed in departs,
// where it is at most 0.1% above. The core departs in one cell. The
// cluster departs in eight, seven of them ties to the bit: a whole burst
// lands on one shard, whose few idle servers both heuristics fill alike.
func TestMSFSumFlowClaimBatch(t *testing.T) {
	const burst = 16
	departs := map[string]bool{
		"core batch, 128 servers, D=0.375, seed 12":    true, // +0.08%
		"cluster batch, 8 servers, D=6, seed 11":       true, // equal
		"cluster batch, 8 servers, D=6, seed 12":       true, // +0.005%
		"cluster batch, 8 servers, D=2, seed 11":       true, // equal
		"cluster batch, 8 servers, D=2, seed 12":       true, // equal
		"cluster batch, 128 servers, D=0.375, seed 11": true, // equal
		"cluster batch, 128 servers, D=0.375, seed 12": true, // equal
		"cluster batch, 128 servers, D=0.375, seed 13": true, // equal
		"cluster batch, 128 servers, D=0.125, seed 12": true, // equal
	}
	for _, cell := range []struct {
		servers int
		d       float64
	}{{8, 6}, {8, 2}, {128, 0.375}, {128, 0.125}} {
		names, rewrite := testbed(cell.servers / 4)
		for seed := uint64(11); seed <= 13; seed++ {
			mt := workload.MustGenerate(workload.Set2(300, cell.d, seed))
			for i, tk := range mt.Tasks {
				tk.Spec = rewrite(tk.Spec)
				tk.Arrival = mt.Tasks[i-i%burst].Arrival
			}
			reqs := requests(mt)
			flow := map[string]map[string]float64{}
			for _, h := range []string{"HMCT", "MSF"} {
				flow[h] = map[string]float64{}
				for _, run := range []struct {
					name  string
					shape Shape
					batch bool
				}{{"core", ShapeCore, false}, {"core batch", ShapeCore, true}, {"cluster batch", ShapeCluster, true}} {
					eng, err := newEngine(run.shape, engineConfig{heuristic: h, seed: seed, width: 4}, names)
					if err != nil {
						t.Fatal(err)
					}
					if !run.batch {
						err = runStream(eng, reqs)
					}
					for i := 0; run.batch && i < len(reqs) && err == nil; i += burst {
						_, err = eng.SubmitBatch(reqs[i:min(i+burst, len(reqs))])
					}
					if err != nil {
						t.Fatal(err)
					}
					flow[h][run.name] = sumFlowOf(eng, mt)
				}
				if seq, batch := flow[h]["core"], flow[h]["core batch"]; math.Float64bits(seq) != math.Float64bits(batch) {
					t.Errorf("%d servers, D=%g, seed %d, %s: batch sum-flow %.17g, sequential %.17g", cell.servers, cell.d, seed, h, batch, seq)
				}
			}
			for _, shape := range []string{"core batch", "cluster batch"} {
				name := fmt.Sprintf("%s, %d servers, D=%g, seed %d", shape, cell.servers, cell.d, seed)
				msf, hmct := flow["MSF"][shape], flow["HMCT"][shape]
				t.Logf("%s: MSF/HMCT sum-flow %.6f (%.6g / %.6g)", name, msf/hmct, msf, hmct)
				if !(msf < hmct) && (!departs[name] || msf > 1.001*hmct) {
					t.Errorf("%s: MSF sum-flow %.6g is not below HMCT's %.6g", name, msf, hmct)
				}
			}
		}
	}
}
