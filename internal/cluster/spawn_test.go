package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/sched"
	"casched/internal/task"
)

// spawnDispatcher returns a Dispatcher over four in-process members
// behind a seam (no always-fresh capability, so every member call the
// dispatcher starts goes through spawn), with the relay on and summaries
// that age on a counting clock. Fresh, they are refreshed and fanned out
// to at every submission; degraded, they go stale at once and decisions
// are delegated by the relay views.
func spawnDispatcher(t *testing.T, degraded bool, spawn func(func())) *Dispatcher {
	t.Helper()
	members := make([]Member, 4)
	for i := range members {
		s, err := sched.ByName("HMCT")
		if err != nil {
			t.Fatal(err)
		}
		core, err := agent.New(agent.Config{Scheduler: s, Seed: 5, Relay: true})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = NewInProcess(fmt.Sprintf("member-%d", i), core)
	}
	var tick atomic.Int64
	cfg := DispatcherConfig{
		Heuristic: "HMCT", Seed: 5, Relay: true, spawn: spawn,
		Now: func() time.Time { return time.Unix(0, tick.Add(int64(time.Millisecond))) },
	}
	if degraded {
		cfg.StaleAfter = time.Nanosecond
	}
	d, err := NewDispatcher(cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	for i := 0; i < 16; i++ {
		if err := d.AddServer(fmt.Sprintf("sv%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestSyncSpawnSamePlacements: the dispatcher's goroutines are a seam. A
// spawn that runs each body on the spot, as a deterministic driver
// would, gives a four-member seamed dispatcher, fresh and relay-degraded,
// the placements of the default spawn, through single submissions with
// completions, batches and a partition adoption.
func TestSyncSpawnSamePlacements(t *testing.T) {
	specs := []*task.Spec{task.Synthetic(0, 16), task.Synthetic(1, 16), task.Synthetic(2, 16)}
	for _, degraded := range []bool{false, true} {
		t.Run(fmt.Sprintf("degraded=%v", degraded), func(t *testing.T) {
			var spawned atomic.Int64
			inline := func(f func()) {
				spawned.Add(1)
				f()
			}
			run := func(d *Dispatcher) []string {
				var placed []string
				for id := 0; id < 120; id++ {
					req := agent.Request{JobID: id, TaskID: id, Spec: specs[id%3], Arrival: 4 * float64(id)}
					if id%10 == 9 {
						batch := make([]agent.Request, 4)
						for k := range batch {
							batch[k] = req
							batch[k].JobID, batch[k].TaskID = 1000+4*id+k, 1000+4*id+k
						}
						decs, err := d.SubmitBatch(batch)
						if err != nil {
							t.Fatal(err)
						}
						for _, dec := range decs {
							placed = append(placed, dec.Server)
						}
					}
					dec, err := d.Submit(req)
					if err != nil {
						t.Fatal(err)
					}
					placed = append(placed, dec.Server)
					if id%3 == 2 {
						if err := d.Complete(dec.JobID, dec.Server, dec.Predicted); err != nil {
							t.Fatal(err)
						}
					}
				}
				d.AdoptPartitions()
				for i := 0; i < 16; i++ {
					m, _ := d.MemberOf(fmt.Sprintf("sv%02d", i))
					placed = append(placed, fmt.Sprint(m))
				}
				return placed
			}
			def := spawnDispatcher(t, degraded, nil)
			want := run(def)
			syn := spawnDispatcher(t, degraded, inline)
			got := run(syn)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("synchronous spawn placed\n %v\nthe default\n %v", got, want)
			}
			distinct := map[string]bool{}
			for _, s := range want {
				distinct[s] = true
			}
			if len(distinct) < 12 {
				t.Errorf("placements on %d servers only: the case does not spread over the members", len(distinct))
			}
			if spawned.Load() == 0 {
				t.Error("the synchronous spawn was never called")
			}
			if delegated := syn.RelayStats().Delegated; degraded != (delegated > 0) {
				t.Errorf("degraded=%v but %d decisions delegated by the relay", degraded, delegated)
			}
		})
	}
}
