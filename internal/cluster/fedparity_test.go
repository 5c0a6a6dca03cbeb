package cluster_test

// Federated-vs-centralized decision parity: a Dispatcher over
// in-process members with fresh summaries (the inline-refresh
// default) must reproduce the sharded Cluster's placement sequence
// decision for decision — the federation adds a transport seam and a
// staleness mode, not decision drift. This extends the 1-shard
// cluster-vs-core parity of parity_test.go one level up: core ≡
// 1-shard cluster ≡ fresh federation.
//
// Both shapes are built from one option slice through the exported
// constructors (New, NewFederation), as a caller builds them, so the
// file lives in package cluster_test.

import (
	"math"
	"testing"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/workload"
)

// fedParityStream mirrors parityStream: the paper's second-set
// workload under Poisson arrivals.
func fedParityStream(n int) []agent.Request {
	mt := workload.MustGenerate(workload.Set2(n, 12, 7))
	reqs := make([]agent.Request, mt.Len())
	for i, tk := range mt.Tasks {
		reqs[i] = agent.Request{JobID: tk.ID, TaskID: tk.ID, Spec: tk.Spec, Arrival: tk.Arrival}
	}
	return reqs
}

// fedParityServers is the second-set testbed (Table 2).
var fedParityServers = []string{"artimon", "spinnaker", "soyotte", "valette"}

// driveFedSequential plays the stream through cluster or federation,
// completing every fourth job to exercise belief corrections, and
// returns the placement sequence.
func driveFedSequential(t *testing.T, submit func(agent.Request) (agent.Decision, error),
	complete func(int, string, float64), reqs []agent.Request) []string {
	t.Helper()
	out := make([]string, len(reqs))
	for i, req := range reqs {
		dec, err := submit(req)
		if err != nil {
			t.Fatalf("job %d: %v", req.JobID, err)
		}
		out[i] = dec.Server
		if i%4 == 3 {
			at := req.Arrival + 15
			if dec.HasPrediction {
				at = dec.Predicted
			}
			complete(dec.JobID, dec.Server, at)
		}
	}
	return out
}

// TestFederationMatchesClusterSubmit pins fresh-summary fan-out
// parity across the shared seed/heuristic matrix, at 1 and 3 members.
func TestFederationMatchesClusterSubmit(t *testing.T) {
	for _, members := range []int{1, 3} {
		for _, name := range []string{"HMCT", "MCT", "MP", "MSF", "MNI", "Random", "RoundRobin"} {
			members, name := members, name
			t.Run(testName(members, name), func(t *testing.T) {
				reqs := fedParityStream(60)

				opts := []cluster.Option{cluster.WithShards(members),
					cluster.WithHeuristic(name), cluster.WithSeed(11)}
				cl, err := cluster.New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, srv := range fedParityServers {
					cl.AddServer(srv)
				}
				want := driveFedSequential(t, cl.Submit,
					func(id int, srv string, at float64) { cl.Complete(id, srv, at) }, reqs)

				f, err := cluster.NewFederation(opts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, srv := range fedParityServers {
					if err := f.AddServer(srv); err != nil {
						t.Fatal(err)
					}
				}
				got := driveFedSequential(t, f.Submit,
					func(id int, srv string, at float64) {
						if err := f.Complete(id, srv, at); err != nil {
							t.Fatal(err)
						}
					}, reqs)

				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("job %d: federation placed on %s, cluster on %s\ncluster:    %v\nfederation: %v",
							i, got[i], want[i], want, got)
					}
				}
			})
		}
	}
}

func testName(members int, heuristic string) string {
	if members == 1 {
		return heuristic + "/members=1"
	}
	return heuristic + "/members=3"
}

// TestFederationMatchesClusterSubmitBatch extends parity to the batch
// router: with fresh summaries the federation's power-of-two-choices
// routing reads exactly the values the cluster reads live, and its
// sampling stream is seeded identically, so burst placements must
// coincide.
func TestFederationMatchesClusterSubmitBatch(t *testing.T) {
	for _, heuristic := range []string{"MSF", "HMCT", "MCT"} {
		heuristic := heuristic
		t.Run(heuristic, func(t *testing.T) {
			reqs := fedParityStream(64)
			const members = 2

			batch := func(reqs []agent.Request, k int) [][]agent.Request {
				var out [][]agent.Request
				for i := 0; i < len(reqs); i += k {
					end := min(i+k, len(reqs))
					b := make([]agent.Request, end-i)
					copy(b, reqs[i:end])
					at := b[0].Arrival
					for j := range b {
						b[j].Arrival = at
					}
					out = append(out, b)
				}
				return out
			}

			opts := []cluster.Option{cluster.WithShards(members),
				cluster.WithHeuristic(heuristic), cluster.WithSeed(11)}
			cl, err := cluster.New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			f, err := cluster.NewFederation(opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, srv := range fedParityServers {
				cl.AddServer(srv)
				if err := f.AddServer(srv); err != nil {
					t.Fatal(err)
				}
			}
			for bi, b := range batch(reqs, 8) {
				want, err := cl.SubmitBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.SubmitBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i].Server != want[i].Server ||
						math.Abs(got[i].Predicted-want[i].Predicted) > 1e-9 {
						t.Fatalf("batch %d job %d: federation %+v vs cluster %+v",
							bi, b[i].JobID, got[i], want[i])
					}
				}
				// Drain every other batch so backlog scores vary.
				if bi%2 == 1 {
					for i, dec := range want {
						if dec.Server == "" {
							continue
						}
						at := b[i].Arrival + 15
						if dec.HasPrediction {
							at = dec.Predicted
						}
						cl.Complete(dec.JobID, dec.Server, at)
						if err := f.Complete(dec.JobID, dec.Server, at); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		})
	}
}
