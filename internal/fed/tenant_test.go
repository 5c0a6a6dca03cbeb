package fed

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/task"
)

// tenantFed builds an in-process federation with extra options.
func tenantFed(t *testing.T, members, nServers int, opts ...cluster.Option) (*Dispatcher, []string) {
	t.Helper()
	opts = append([]cluster.Option{cluster.WithShards(members), cluster.WithHeuristic("HMCT"), cluster.WithSeed(7)}, opts...)
	d, err := cluster.NewFederation(opts...)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]string, nServers)
	for i := range servers {
		servers[i] = "sv" + string(rune('a'+i))
		if err := d.AddServer(servers[i]); err != nil {
			t.Fatal(err)
		}
	}
	return d, servers
}

// TestFedIntakeThrottle pins the dispatch-level token bucket on both
// submission paths, including the single-member shortcut.
func TestFedIntakeThrottle(t *testing.T) {
	for _, members := range []int{1, 2} {
		d, servers := tenantFed(t, members, 4, cluster.WithIntakeLimit(1, 1))
		defer d.Close()
		var sheds []agent.Event
		d.Subscribe(func(ev agent.Event) {
			if ev.Kind == agent.EventShed {
				sheds = append(sheds, ev)
			}
		})
		spec := evenSpec(servers)
		if _, err := d.Submit(agent.Request{JobID: 1, Spec: spec, Arrival: 0, Tenant: "gold"}); err != nil {
			t.Fatalf("members=%d: first submit: %v", members, err)
		}
		_, err := d.Submit(agent.Request{JobID: 2, Spec: spec, Arrival: 0, Tenant: "gold"})
		if !errors.Is(err, agent.ErrThrottled) {
			t.Fatalf("members=%d: second submit err = %v, want ErrThrottled", members, err)
		}
		if len(sheds) != 1 || sheds[0].Reason != agent.ShedThrottled || sheds[0].Tenant != "gold" {
			t.Errorf("members=%d: shed events = %+v", members, sheds)
		}

		// Batch gate: 3 arrivals at t=5 against 1/s with burst 1 — the
		// refill since t=0 admits one, the rest shed, positions hold.
		reqs := []agent.Request{
			{JobID: 10, Spec: spec, Arrival: 5},
			{JobID: 11, Spec: spec, Arrival: 5},
			{JobID: 12, Spec: spec, Arrival: 5},
		}
		decs, err := d.SubmitBatch(reqs)
		if !errors.Is(err, agent.ErrThrottled) {
			t.Fatalf("members=%d: batch err = %v, want ErrThrottled in chain", members, err)
		}
		if len(decs) != 3 || decs[0].Server == "" || decs[1].Server != "" || decs[2].Server != "" {
			t.Errorf("members=%d: batch decisions = %+v, want only position 0 placed", members, decs)
		}
	}
}

// TestFedDeadlineFanoutShed pins fresh-mode admission: a deadline no
// member can meet sheds once at the dispatch layer (members evaluate
// but never emit), a feasible one places.
func TestFedDeadlineFanoutShed(t *testing.T) {
	d, servers := tenantFed(t, 2, 4, cluster.WithAdmission(true))
	defer d.Close()
	var sheds []agent.Event
	d.Subscribe(func(ev agent.Event) {
		if ev.Kind == agent.EventShed {
			sheds = append(sheds, ev)
		}
	})
	spec := evenSpec(servers) // compute costs ≥ 20 everywhere
	_, err := d.Submit(agent.Request{JobID: 1, Spec: spec, Arrival: 0, Deadline: 5})
	if !errors.Is(err, agent.ErrDeadlineUnmet) {
		t.Fatalf("tight deadline err = %v, want ErrDeadlineUnmet", err)
	}
	if len(sheds) != 1 || sheds[0].Reason != agent.ShedDeadline {
		t.Errorf("shed events = %+v, want one deadline shed", sheds)
	}
	dec, err := d.Submit(agent.Request{JobID: 2, Spec: spec, Arrival: 0, Deadline: 1000})
	if err != nil || dec.Server == "" {
		t.Fatalf("feasible deadline: dec=%+v err=%v", dec, err)
	}
}

// TestFedPlacedWindowMemoryFlat is the federation half of the
// bounded-retention satellite.
func TestFedPlacedWindowMemoryFlat(t *testing.T) {
	d, err := cluster.NewFederation(cluster.WithShards(2), cluster.WithHeuristic("MCT"), cluster.WithSeed(7), cluster.WithPlacedWindow(100))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	servers := make([]string, 4)
	for i := range servers {
		servers[i] = "sv" + string(rune('a'+i))
		if err := d.AddServer(servers[i]); err != nil {
			t.Fatal(err)
		}
	}
	spec := evenSpec(servers)
	for i := 0; i < 20000; i++ {
		if _, err := d.Submit(agent.Request{JobID: i, Spec: spec, Arrival: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := d.InFlight() // the dispatcher's own accounting: its placement records
	if n > 200 {
		t.Errorf("placed map grew to %d records over a 100s window", n)
	}
}

// TestFedTenantConfigParity pins the behavior-preserving contract at
// the federation layer: single-tenant traffic with tenant shares
// configured and admission on reproduces the plain federation's
// placements bit for bit.
func TestFedTenantConfigParity(t *testing.T) {
	plain, servers := tenantFed(t, 2, 4)
	defer plain.Close()
	fancy, _ := tenantFed(t, 2, 4,
		cluster.WithTenantShares(map[string]float64{"gold": 4, "silver": 1}),
		cluster.WithAdmission(true))
	defer fancy.Close()
	spec := evenSpec(servers)
	for i := 0; i < 40; i++ {
		req := agent.Request{JobID: i, Spec: spec, Arrival: float64(i)}
		want, err1 := plain.Submit(req)
		got, err2 := fancy.Submit(req)
		if err1 != nil || err2 != nil {
			t.Fatalf("job %d: errs %v / %v", i, err1, err2)
		}
		if want.Server != got.Server {
			t.Fatalf("job %d diverged: plain=%s fancy=%s", i, want.Server, got.Server)
		}
	}
}

// TestFedConcurrentMultiTenantSubmit exercises concurrent
// multi-tenant submissions through the federation under -race.
func TestFedConcurrentMultiTenantSubmit(t *testing.T) {
	d, servers := tenantFed(t, 2, 4,
		cluster.WithTenantShares(map[string]float64{"gold": 4, "silver": 1}),
		cluster.WithAdmission(true))
	defer d.Close()
	spec := evenSpec(servers)
	var wg sync.WaitGroup
	const workers, per = 4, 40
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := "gold"
			if w%2 == 1 {
				tenant = "silver"
			}
			for i := 0; i < per; i++ {
				id := w*per + i
				dec, err := d.Submit(agent.Request{
					JobID: id, Spec: spec, Arrival: float64(i),
					Tenant: tenant, Deadline: float64(i) + 1e6,
				})
				if err != nil && !errors.Is(err, agent.ErrDeadlineUnmet) {
					errCh <- fmt.Errorf("job %d: %w", id, err)
					return
				}
				if err == nil && i%10 == 9 {
					if cerr := d.Complete(id, dec.Server, float64(i)+50); cerr != nil {
						errCh <- fmt.Errorf("complete %d: %w", id, cerr)
						return
					}
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFedTenantCrossesWire pins that tenant and deadline survive the
// member wire mapping both ways.
func TestFedTenantCrossesWire(t *testing.T) {
	spec, err := task.Resolve("wastecpu", 400)
	if err != nil {
		t.Fatal(err)
	}
	args, err := wireTask(agent.Request{
		JobID: 7, Spec: spec, Arrival: 3, Tenant: "gold/alice", Deadline: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if args.Tenant != "gold/alice" || args.Deadline != 42 {
		t.Errorf("wire args = %+v, tenant/deadline dropped", args)
	}
}
