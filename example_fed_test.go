package casched_test

import (
	"fmt"
	"log"

	"casched"
)

// ExampleNewFederation shows the federated dispatcher: four servers
// partitioned across two member agents, each decision fanned out over
// the members' heuristic evaluations and committed on the global
// best — with fresh summaries, the same placements the equivalent
// NewCluster makes.
func ExampleNewFederation() {
	f, err := casched.NewFederation(
		casched.WithShards(2),
		casched.WithHeuristic("HMCT"),
		casched.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	spec := &casched.Spec{Problem: "demo", Variant: 1, CostOn: map[string]casched.Cost{
		"east1": {Compute: 10}, "east2": {Compute: 14},
		"west1": {Compute: 12}, "west2": {Compute: 18},
	}}
	for _, s := range []string{"east1", "east2", "west1", "west2"} {
		if err := f.AddServer(s); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		dec, err := f.Submit(casched.AgentRequest{JobID: i, TaskID: i, Spec: spec, Arrival: 0})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("task %d -> %s (predicted completion %.0fs)\n", i, dec.Server, dec.Predicted)
	}
	// Output:
	// task 0 -> east1 (predicted completion 10s)
	// task 1 -> west1 (predicted completion 12s)
	// task 2 -> east2 (predicted completion 14s)
}

// ExampleStartFedServer shows the federation dispatcher TCP runtime:
// one dispatcher listening for member agents (casagent -join),
// computational servers and clients. A replicated deployment would
// start one per replica with casched.WithElection and
// casched.WithStandby layered on.
func ExampleStartFedServer() {
	srv, err := casched.StartFedServer(casched.FedServerConfig{
		Heuristic: "HMCT",
		Clock:     casched.NewLiveClock(1000),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("listening:", srv.Addr() != "")
	fmt.Println("serving clients:", srv.HAStatus().IsLeader)
	fmt.Println("members joined:", srv.Dispatcher().NumMembers())
	// Output:
	// listening: true
	// serving clients: true
	// members joined: 0
}
