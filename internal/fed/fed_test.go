package fed

import (
	"strings"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/live"
	"casched/internal/sched"
	"casched/internal/task"
)

// newTestFed builds an in-process federation with evenly spread
// servers.
func newTestFed(t *testing.T, members int, heuristic string, nServers int) (*Dispatcher, []string) {
	t.Helper()
	d, err := cluster.NewFederation(cluster.WithShards(members), cluster.WithHeuristic(heuristic), cluster.WithSeed(7))
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

// TestMergedEventStream pins that member decisions and completions
// surface on the dispatcher's merged stream.
func TestMergedEventStream(t *testing.T) {
	d, servers := newTestFed(t, 3, "HMCT", 6)
	spec := evenSpec(servers)

	var decisions, completions int
	cancel := d.Subscribe(func(ev agent.Event) {
		switch ev.Kind {
		case agent.EventDecision:
			decisions++
		case agent.EventCompletion:
			completions++
		}
	})
	defer cancel()

	for i := 1; i <= 10; i++ {
		dec, err := d.Submit(req(i, spec, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := d.Complete(i, dec.Server, float64(i)+40); err != nil {
				t.Fatal(err)
			}
		}
	}
	if decisions != 10 || completions != 5 {
		t.Errorf("merged stream saw %d decisions / %d completions, want 10/5", decisions, completions)
	}
	if got := d.InFlight(); got != 5 {
		t.Errorf("in-flight = %d, want 5", got)
	}
}

// TestUnscoredRotation pins that heuristics without a comparable
// objective rotate over eligible members instead of fanning out.
func TestUnscoredRotation(t *testing.T) {
	d, servers := newTestFed(t, 3, "RoundRobin", 6)
	spec := evenSpec(servers)
	perMember := map[int]int{}
	for i := 1; i <= 12; i++ {
		dec, err := d.Submit(req(i, spec, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		m, ok := d.MemberOf(dec.Server)
		if !ok {
			t.Fatalf("job %d placed on unknown server %s", i, dec.Server)
		}
		perMember[m]++
	}
	for m := 0; m < 3; m++ {
		if perMember[m] != 4 {
			t.Fatalf("rotation spread = %v, want 4 per member", perMember)
		}
	}
}

// TestRemoveServer pins partition shrinkage through the dispatcher.
func TestRemoveServer(t *testing.T) {
	d, servers := newTestFed(t, 2, "HMCT", 4)
	spec := evenSpec(servers[:1]) // only solvable on servers[0]
	if err := d.RemoveServer(servers[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(req(1, spec, 1)); err == nil {
		t.Fatal("submit to a removed server's only candidate succeeded")
	}
	if got := len(d.Servers()); got != 3 {
		t.Errorf("servers = %d, want 3", got)
	}
}

// TestJoinRejectsHeuristicMismatch pins the federation-wide objective
// invariant on the wire: a member running a different heuristic is
// turned away at Join.
func TestJoinRejectsHeuristicMismatch(t *testing.T) {
	clock := live.NewClock(1000)
	fs, err := StartServer(ServerConfig{Heuristic: "HMCT", Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	s, err := sched.ByName("MSF")
	if err != nil {
		t.Fatal(err)
	}
	_, err = live.StartAgent(live.AgentConfig{
		Scheduler: s, Clock: clock, Join: fs.Addr(), Name: "odd",
	})
	if err == nil || !strings.Contains(err.Error(), "runs") {
		t.Fatalf("mismatched join error = %v, want heuristic rejection", err)
	}
	if got := fs.Dispatcher().NumMembers(); got != 0 {
		t.Errorf("mismatched member admitted: %d members", got)
	}
}

// TestJoinRejectsShardedAgent pins that a sharded agent cannot serve
// as a federation member.
func TestJoinRejectsShardedAgent(t *testing.T) {
	clock := live.NewClock(1000)
	fs, err := StartServer(ServerConfig{Heuristic: "HMCT", Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	s, err := sched.ByName("HMCT")
	if err != nil {
		t.Fatal(err)
	}
	_, err = live.StartAgent(live.AgentConfig{
		Scheduler: s, Clock: clock, Shards: 2, Join: fs.Addr(),
	})
	if err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("sharded join error = %v, want rejection", err)
	}
}

// TestRemoteRejectsNonRegistrySpec pins the TCP transport's
// wire-transportability restriction: specs outside the task registry
// cannot be federated and fail eligibility cleanly.
func TestRemoteRejectsNonRegistrySpec(t *testing.T) {
	r := NewRemote("m", "127.0.0.1:1", 50*time.Millisecond)
	custom := &task.Spec{Problem: "synthetic", Variant: 99,
		CostOn: map[string]task.Cost{"x": {Compute: 1}}}
	ok, err := r.CanSolve(custom)
	if err != nil || ok {
		t.Fatalf("CanSolve(custom) = %v, %v; want false, nil without dialing", ok, err)
	}
	if _, err := r.Evaluate(agent.Request{JobID: 1, Spec: custom}); err == nil {
		t.Fatal("Evaluate(custom spec) succeeded, want wire-transportability error")
	}
	// A spec that reuses a registry (Problem, Variant) key but carries
	// rewritten costs must be rejected too: only the key crosses the
	// wire, and the member would silently schedule against the
	// registry's cost table instead of the rewritten one.
	shadow := &task.Spec{Problem: "wastecpu", Variant: 400,
		CostOn: map[string]task.Cost{"artimon": {Compute: 1}}}
	ok, err = r.CanSolve(shadow)
	if err != nil || ok {
		t.Fatalf("CanSolve(shadowed registry key) = %v, %v; want false, nil", ok, err)
	}
	if _, err := r.Evaluate(agent.Request{JobID: 2, Spec: shadow}); err == nil {
		t.Fatal("Evaluate(shadowed registry key) succeeded, want wire-transportability error")
	}
	// The genuine registry spec stays transportable.
	if _, err := wireTask(agent.Request{JobID: 3, Spec: task.WasteCPU(400)}); err != nil {
		t.Fatalf("wireTask(registry spec): %v", err)
	}
}

// TestConfigDefaults pins the zero-value resolution the committed
// study and runtime rely on.
func TestConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.Defaults()
	if cfg.Policy == nil || cfg.StaleAfter != 2*time.Second ||
		cfg.MaxFailures != 3 || cfg.ProbeInterval != cfg.StaleAfter || cfg.Now == nil {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
}
