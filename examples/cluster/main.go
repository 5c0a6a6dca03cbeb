// Cluster walkthrough: a sharded agent over a 48-server pool — N agent
// cores behind one dispatch layer with a merged event stream.
//
// The example builds a pool of three hardware classes, partitions it
// across 4 shards with the class-affinity policy, streams bursty
// arrivals through SubmitBatch (hierarchical routing: each burst goes
// to the least-loaded shard and pipelines through its core), feeds completions back at their predicted dates, exercises
// live membership with rebalancing, and reads everything off a
// StatsCollector subscribed to the merged stream.
package main

import (
	"fmt"
	"log"

	"casched"
)

// pool builds 48 servers in three named classes with class-specific
// speeds, plus one spec solvable everywhere.
func pool() ([]string, *casched.Spec) {
	classes := map[string]float64{"sun": 30, "sgi": 22, "alpha": 16}
	var names []string
	costs := make(map[string]casched.Cost)
	for class, compute := range classes {
		for i := 0; i < 16; i++ {
			name := fmt.Sprintf("%s%02d", class, i)
			names = append(names, name)
			f := 1 + 0.03*float64(i)
			costs[name] = casched.Cost{Input: 0.4, Compute: compute * f, Output: 0.2}
		}
	}
	return names, &casched.Spec{Problem: "demo", Variant: 1, CostOn: costs}
}

func main() {
	names, spec := pool()

	// 4 shards, HMCT on each, servers grouped by hardware class so a
	// class resolves within one shard.
	cl, err := casched.NewCluster(
		casched.WithShards(4),
		casched.WithHeuristic("HMCT"),
		casched.WithShardPolicy(casched.AffinityShardPolicy(nil)),
		casched.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}

	// One collector on the merged event stream sees every shard.
	stats := casched.NewStatsCollector()
	cancel := cl.Subscribe(stats.Collect)
	defer cancel()

	for _, name := range names {
		cl.AddServer(name)
	}
	fmt.Printf("%d servers across %d shards:\n", len(cl.Servers()), cl.NumShards())
	for i := 0; i < cl.NumShards(); i++ {
		fmt.Printf("  shard %d: %d servers\n", i, cl.Shard(i).ServerCount())
	}

	// Stream 10 bursts of 12 simultaneous arrivals, completing every
	// job at its HTM-predicted date (the open-loop fluid model is the
	// ground truth here, as in the paper's simulator).
	jobID := 0
	for burst := 0; burst < 10; burst++ {
		at := float64(burst) * 20
		reqs := make([]casched.AgentRequest, 12)
		for i := range reqs {
			reqs[i] = casched.AgentRequest{JobID: jobID, TaskID: jobID, Spec: spec, Arrival: at}
			jobID++
		}
		decs, err := cl.SubmitBatch(reqs)
		if err != nil {
			log.Fatal(err)
		}
		for i, d := range decs {
			// Real executions jitter around the fluid model's
			// prediction; the collector's error metric picks it up.
			cl.Complete(d.JobID, d.Server, d.Predicted+0.3*float64(i%3))
		}
	}

	// Live membership: decommission a class and rebalance the pool.
	for i := 0; i < 16; i++ {
		cl.RemoveServer(fmt.Sprintf("alpha%02d", i))
	}
	moved := cl.Rebalance()
	fmt.Printf("\nafter decommissioning the alpha class (rebalance moved %d servers):\n", moved)
	for i := 0; i < cl.NumShards(); i++ {
		fmt.Printf("  shard %d: %d servers\n", i, cl.Shard(i).ServerCount())
	}

	snap := stats.Snapshot()
	fmt.Printf("\nmerged-stream stats: %d decisions, %d completions, mean |prediction error| %.3fs\n",
		snap.Decisions, snap.Completions, snap.MeanAbsPredictionError)
	busiest, n := "", int64(0)
	for name, o := range snap.Occupancy {
		if o.Decisions > n {
			busiest, n = name, o.Decisions
		}
	}
	fmt.Printf("busiest server: %s (%d decisions)\n", busiest, n)
}
