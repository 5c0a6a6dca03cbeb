package casched_test

import (
	"errors"
	"testing"

	"casched"
)

// TestParseTenantShares pins the CLI share-map syntax.
func TestParseTenantShares(t *testing.T) {
	shares, err := casched.ParseTenantShares("gold=4, silver=2,bronze=0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"gold": 4, "silver": 2, "bronze": 0.5}
	if len(shares) != len(want) {
		t.Fatalf("shares = %v, want %v", shares, want)
	}
	for k, v := range want {
		if shares[k] != v {
			t.Errorf("shares[%s] = %v, want %v", k, shares[k], v)
		}
	}
	if empty, err := casched.ParseTenantShares("  "); err != nil || empty != nil {
		t.Errorf("blank input = %v, %v, want nil, nil", empty, err)
	}
	for _, bad := range []string{"gold", "gold=", "gold=-1", "=4", "gold=x"} {
		if _, err := casched.ParseTenantShares(bad); err == nil {
			t.Errorf("ParseTenantShares(%q) accepted", bad)
		}
	}
}

// TestPublicAPITenantIntake drives the multi-tenant intake path through
// the facade: shares + admission + rate limit on a single core, shed
// events with their reasons, the error sentinels, and per-tenant gauges
// through the StatsCollector.
func TestPublicAPITenantIntake(t *testing.T) {
	msf, err := casched.NewScheduler("MSF")
	if err != nil {
		t.Fatal(err)
	}
	core, err := casched.NewAgentCore(casched.AgentCoreConfig{Scheduler: msf, Seed: 3},
		casched.WithTenantShares(map[string]float64{"gold": 4, "silver": 1}),
		casched.WithAdmission(true),
		casched.WithIntakeLimit(1, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	stats := casched.NewStatsCollector()
	defer core.Subscribe(stats.Collect)()
	var sheds []casched.AgentEvent
	defer core.Subscribe(func(ev casched.AgentEvent) {
		if ev.Kind == casched.AgentEventShed {
			sheds = append(sheds, ev)
		}
	})()

	core.AddServer("artimon")
	spec := casched.WasteCPUSpec(400) // ~hundreds of compute seconds
	dec, err := core.Submit(casched.AgentRequest{
		JobID: 1, Spec: spec, Arrival: 0, Tenant: "gold", Deadline: 1e6,
	})
	if err != nil || dec.Server == "" {
		t.Fatalf("feasible submit: dec=%+v err=%v", dec, err)
	}
	// An infeasible deadline sheds with the deadline sentinel.
	if _, err := core.Submit(casched.AgentRequest{
		JobID: 2, Spec: spec, Arrival: 0, Tenant: "gold", Deadline: 1,
	}); !errors.Is(err, casched.ErrDeadlineUnmet) {
		t.Fatalf("tight deadline err = %v, want ErrDeadlineUnmet", err)
	}
	// The burst of 2 is spent; the next arrival at t=0 throttles.
	if _, err := core.Submit(casched.AgentRequest{
		JobID: 3, Spec: spec, Arrival: 0, Tenant: "silver",
	}); !errors.Is(err, casched.ErrThrottled) {
		t.Fatalf("third submit err = %v, want ErrThrottled", err)
	}
	if len(sheds) != 2 ||
		sheds[0].Reason != casched.ShedDeadline ||
		sheds[1].Reason != casched.ShedThrottled {
		t.Fatalf("shed events = %+v, want deadline then throttled", sheds)
	}

	st := stats.Snapshot()
	if st.Sheds != 2 {
		t.Errorf("Stats.Sheds = %d, want 2", st.Sheds)
	}
	var gold casched.TenantStats = st.Tenants["gold"]
	if gold.Decisions != 1 || gold.DeadlineShed != 1 {
		t.Errorf("gold stats = %+v, want 1 decision and 1 deadline shed", gold)
	}
	if st.Tenants["silver"].Throttled != 1 {
		t.Errorf("silver stats = %+v, want 1 throttled", st.Tenants["silver"])
	}
}

// TestPublicAPIClusterTenantOptions pins the dispatch-layer option set:
// WithPlacedWindow is cluster-only, and the tenant options compose with
// a sharded cluster.
func TestPublicAPIClusterTenantOptions(t *testing.T) {
	if _, err := casched.NewAgentCore(casched.AgentCoreConfig{},
		casched.WithPlacedWindow(100)); err == nil {
		t.Error("NewAgentCore accepted WithPlacedWindow")
	}
	cl, err := casched.NewCluster(
		casched.WithShards(2),
		casched.WithHeuristic("hmct"),
		casched.WithSeed(3),
		casched.WithTenantShares(map[string]float64{"gold": 4}),
		casched.WithAdmission(true),
		casched.WithIntakeLimit(100, 100),
		casched.WithPlacedWindow(1000),
	)
	if err != nil {
		t.Fatal(err)
	}
	costs := make(map[string]casched.Cost)
	for i := 0; i < 4; i++ {
		costs[string(rune('a'+i))] = casched.Cost{Compute: 10}
	}
	spec := &casched.Spec{Problem: "p", Variant: 1, CostOn: costs}
	for name := range costs {
		cl.AddServer(name)
	}
	dec, err := cl.Submit(casched.AgentRequest{
		JobID: 1, Spec: spec, Arrival: 0, Tenant: "gold", Deadline: 1e6,
	})
	if err != nil || dec.Server == "" {
		t.Fatalf("cluster submit: dec=%+v err=%v", dec, err)
	}
}

// TestPublicAPIFederationTenantOptions pins the federation option set
// through the facade.
func TestPublicAPIFederationTenantOptions(t *testing.T) {
	f, err := casched.NewFederation(
		casched.WithShards(2),
		casched.WithHeuristic("HMCT"),
		casched.WithSeed(7),
		casched.WithTenantShares(map[string]float64{"gold": 4}),
		casched.WithAdmission(true),
		casched.WithIntakeLimit(100, 100),
		casched.WithPlacedWindow(1000),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	costs := make(map[string]casched.Cost)
	for i := 0; i < 4; i++ {
		costs[string(rune('a'+i))] = casched.Cost{Compute: 10}
	}
	spec := &casched.Spec{Problem: "p", Variant: 1, CostOn: costs}
	for name := range costs {
		if err := f.AddServer(name); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := f.Submit(casched.AgentRequest{
		JobID: 1, Spec: spec, Arrival: 0, Tenant: "gold", Deadline: 1e6,
	})
	if err != nil || dec.Server == "" {
		t.Fatalf("federation submit: dec=%+v err=%v", dec, err)
	}
}
