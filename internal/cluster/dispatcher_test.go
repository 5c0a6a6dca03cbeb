package cluster

// White-box tests of the Dispatcher's routing state. The federation's
// own suites (internal/fed) drive it through its exported surface over
// real and scripted members.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"casched/internal/agent"
	"casched/internal/sched"
	"casched/internal/stats"
	"casched/internal/task"
)

// TestFedTenantOrderUsesTenantBacklog pins the fair stale-mode
// signal: routing for one tenant ranks members on that tenant's own
// summarized in-flight, not the global count.
func TestFedTenantOrderUsesTenantBacklog(t *testing.T) {
	members := make([]Member, 2)
	for i := range members {
		s, err := sched.ByName("HMCT")
		if err != nil {
			t.Fatal(err)
		}
		core, err := agent.New(agent.Config{Scheduler: s, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = NewInProcess(fmt.Sprintf("member-%d", i), core)
	}
	d, err := NewDispatcher(DispatcherConfig{Heuristic: "HMCT", Seed: 7}, members)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.mu.Lock()
	// Member 0 drowning in gold work, member 1 in silver work; totals
	// equal, so only the per-tenant split can separate them. Pin the
	// partition counts so the ranking is deterministic regardless of
	// how the hash policy spread the servers.
	d.counts = []int{2, 2}
	d.members[0].summary = Summary{InFlight: 10, Servers: 2,
		TenantInFlight: map[string]int{"gold": 10}}
	d.members[1].summary = Summary{InFlight: 10, Servers: 2,
		TenantInFlight: map[string]int{"silver": 10}}
	goldOrder := d.orderLocked(0, []int{0, 1}, "gold")
	silverOrder := d.orderLocked(0, []int{0, 1}, "silver")
	d.mu.Unlock()
	if goldOrder[0] != 1 {
		t.Errorf("gold order = %v, want member 1 (idle for gold) first", goldOrder)
	}
	if silverOrder[0] != 0 {
		t.Errorf("silver order = %v, want member 0 (idle for silver) first", silverOrder)
	}
}

// TestClusterSubmitLinearizable is fed's TestFanoutLinearizable on the
// path that never releases the dispatch lock: eight submitters drive a
// 4-shard Cluster, whose fan-out evaluates the shards inline; the same
// requests replayed by one caller in commit order (the merged event
// stream gives it) over a fresh Cluster must give every job the same
// server and the stream the same order.
func TestClusterSubmitLinearizable(t *testing.T) {
	const (
		shards, nServers  = 4, 32
		nJobs, submitters = 2000, 8
	)
	rng := stats.NewRNG(0x11ea)
	reqs := make([]agent.Request, nJobs)
	at := 0.0
	for i := range reqs {
		at += rng.Exp(4)
		reqs[i] = agent.Request{JobID: i, TaskID: i, Spec: task.Synthetic(rng.Intn(3), nServers), Arrival: at}
	}
	// run drives reqs through a fresh Cluster from the given number of
	// callers and returns each job's server and the decision order.
	run := func(reqs []agent.Request, callers int) (placed []string, order []int) {
		cl := newTestCluster(t, shards, "HMCT", nServers)
		defer cl.Close()
		cl.Subscribe(func(ev agent.Event) {
			if ev.Kind == agent.EventDecision {
				order = append(order, ev.JobID) // deliveries are serialized
			}
		})
		placed = make([]string, nJobs)
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(reqs); k = int(next.Add(1)) - 1 {
					dec, err := cl.Submit(reqs[k])
					if err != nil {
						t.Errorf("job %d: %v", reqs[k].JobID, err)
						return
					}
					placed[reqs[k].JobID] = dec.Server
				}
			}()
		}
		wg.Wait()
		return placed, order
	}

	got, order := run(reqs, submitters)
	if t.Failed() {
		return
	}
	if len(order) != nJobs {
		t.Fatalf("%d decisions on the merged stream, want %d", len(order), nJobs)
	}
	replay := make([]agent.Request, nJobs)
	for k, job := range order {
		replay[k] = reqs[job] // job ids are request positions
	}
	want, replayed := run(replay, 1)
	if !slices.Equal(replayed, order) {
		t.Fatal("the single-caller replay did not decide in the order it was given")
	}
	for job := range want {
		if got[job] != want[job] {
			t.Fatalf("job %d: concurrent run placed it on %q, the ordered replay on %q", job, got[job], want[job])
		}
	}
}
