package fed

// The chaos decorator: capability forwarding (a wrapped in-process
// member must keep its relay/partition/event surfaces), injected kill
// and channel-sever semantics, and the latency-vs-budget model.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/sched"
)

func newChaosMember(t *testing.T, name string) (*InProcess, Member, *ScriptInjector) {
	t.Helper()
	s, err := sched.ByName("HMCT")
	if err != nil {
		t.Fatal(err)
	}
	core, err := agent.New(agent.Config{Scheduler: s, Seed: 7, Relay: true})
	if err != nil {
		t.Fatal(err)
	}
	inner := NewInProcess(name, core)
	inj := NewScriptInjector(0)
	return inner, Chaos(inner, inj), inj
}

func TestChaosForwardsCapabilities(t *testing.T) {
	inner, m, inj := newChaosMember(t, "m0")
	if err := m.AddServer("sv00"); err != nil {
		t.Fatal(err)
	}

	// The optional capabilities must survive the wrapper: the relay,
	// partition-bootstrap, event and prediction surfaces all reach the
	// inner core while the injector stays quiet.
	rs, ok := m.(relaySource)
	if !ok {
		t.Fatal("chaos wrapper lost the relaySource capability")
	}
	if _, ok, err := rs.RelaySince(0); err != nil || !ok {
		t.Fatalf("RelaySince through quiet chaos = ok=%v err=%v, want ok=true", ok, err)
	}
	ps, ok := m.(partitionSource)
	if !ok {
		t.Fatal("chaos wrapper lost the partitionSource capability")
	}
	servers, ok, err := ps.Partition()
	if err != nil || !ok || len(servers) != 1 || servers[0] != "sv00" {
		t.Fatalf("Partition = %v ok=%v err=%v, want [sv00]", servers, ok, err)
	}
	if _, ok := m.(eventSource); !ok {
		t.Fatal("chaos wrapper lost the eventSource capability")
	}
	if _, ok := m.(fencer); !ok {
		t.Fatal("chaos wrapper lost the fencer capability")
	}

	spec := evenSpec([]string{"sv00"})
	dec, err := m.Submit(req(1, spec, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Server != "sv00" {
		t.Fatalf("Submit placed on %q, want sv00", dec.Server)
	}

	// The commit-start capability is forwarded (over an in-process member
	// the commit simply runs at the start step), and an OpCommit fault is
	// injected there: nothing is committed, wait reports the refusal.
	cs, ok := m.(commitStarter)
	if !ok {
		t.Fatal("chaos wrapper lost the commitStarter capability")
	}
	if dec, err := cs.StartCommit(req(2, spec, 1), "sv00")(); err != nil || dec.Server != "sv00" {
		t.Fatalf("StartCommit through quiet chaos = %+v, %v", dec, err)
	}
	inj.Sever("m0", OpCommit)
	if _, err := cs.StartCommit(req(3, spec, 2), "sv00")(); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("severed StartCommit: %v, want ErrUnreachable", err)
	}
	if got := inner.Core().InFlight(); got != 2 {
		t.Fatalf("in flight = %d, want 2 (the severed commit must not land)", got)
	}
}

func TestChaosKillAndSever(t *testing.T) {
	_, m, inj := newChaosMember(t, "m0")
	if err := m.AddServer("sv00"); err != nil {
		t.Fatal(err)
	}
	spec := evenSpec([]string{"sv00"})

	// Kill: every op refused with a reroute-safe unreachable error.
	inj.Kill("m0")
	if _, err := m.Submit(req(1, spec, 0)); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Submit on killed member = %v, want ErrUnreachable", err)
	}
	if _, err := m.Summary(); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Summary on killed member = %v, want ErrUnreachable", err)
	}
	rs := m.(relaySource)
	if _, ok, err := rs.RelaySince(0); !ok || !errors.Is(err, ErrUnreachable) {
		// ok must stay true: a transport failure, not "no relay".
		t.Fatalf("RelaySince on killed member = ok=%v err=%v, want ok=true ErrUnreachable", ok, err)
	}
	inj.Revive("m0")
	if _, err := m.Submit(req(2, spec, 1)); err != nil {
		t.Fatalf("Submit after revive: %v", err)
	}

	// Sever the summary channel alone: gossip dark, decisions flow.
	inj.Sever("m0", OpSummary)
	if _, err := m.Summary(); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Summary on severed channel = %v, want ErrUnreachable", err)
	}
	if _, err := m.Submit(req(3, spec, 2)); err != nil {
		t.Fatalf("Submit must pass a summary-only sever: %v", err)
	}
	inj.Heal("m0")
	if _, err := m.Summary(); err != nil {
		t.Fatalf("Summary after heal: %v", err)
	}
	if got := inj.Dropped("m0"); got != 4 {
		t.Errorf("Dropped = %d, want 4", got)
	}
}

func TestChaosLatencyBudget(t *testing.T) {
	s, err := sched.ByName("HMCT")
	if err != nil {
		t.Fatal(err)
	}
	core, err := agent.New(agent.Config{Scheduler: s, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inj := NewScriptInjector(10 * time.Millisecond)
	var slept time.Duration
	inj.sleep = func(d time.Duration) { slept += d }
	m := Chaos(NewInProcess("m0", core), inj)
	if err := m.AddServer("sv00"); err != nil {
		t.Fatal(err)
	}
	spec := evenSpec([]string{"sv00"})

	// Latency below the budget: the call is delayed and succeeds.
	inj.SetLatency("m0", 2*time.Millisecond)
	if _, err := m.Submit(req(1, spec, 0)); err != nil {
		t.Fatal(err)
	}
	if slept != 2*time.Millisecond {
		t.Fatalf("slept %v, want 2ms", slept)
	}

	// Latency at/over the budget: the call fails like a dial timeout
	// without sleeping.
	inj.SetLatency("m0", 10*time.Millisecond)
	if _, err := m.Submit(req(2, spec, 1)); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Submit over budget = %v, want ErrUnreachable", err)
	}
	if slept != 2*time.Millisecond {
		t.Fatalf("over-budget call slept (total %v), want none", slept)
	}
	inj.SetLatency("m0", 0)
	if _, err := m.Submit(req(3, spec, 2)); err != nil {
		t.Fatal(err)
	}
}

// TestChaosThroughDispatcher pins the decorator at its real seam: a
// dispatcher over chaos-wrapped members behaves exactly as over bare
// ones while the injector is quiet, and a killed member is evicted
// after MaxFailures and readmitted on revive + probe.
func TestChaosThroughDispatcher(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := Config{
		Heuristic:   "HMCT",
		Seed:        7,
		StaleAfter:  10 * time.Second,
		MaxFailures: 2,
		Now:         func() time.Time { return now },
	}
	inj := NewScriptInjector(0)
	members := make([]Member, 2)
	for i := range members {
		s, err := sched.ByName(cfg.Heuristic)
		if err != nil {
			t.Fatal(err)
		}
		core, err := agent.New(agent.Config{Scheduler: s, Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = Chaos(NewInProcess(fmt.Sprintf("m%d", i), core), inj)
	}
	d, err := NewWithMembers(cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	servers := []string{"sv00", "sv01", "sv02", "sv03"}
	for i, sv := range servers {
		m := i % 2
		if err := d.Member(m).AddServer(sv); err != nil {
			t.Fatal(err)
		}
		d.AdoptPartition(d.Member(m).Name(), []string{sv})
	}
	spec := evenSpec(servers)

	if _, err := d.Submit(req(1, spec, 0)); err != nil {
		t.Fatal(err)
	}

	inj.Kill("m1")
	for i := 2; i <= 6; i++ {
		now = now.Add(time.Second)
		if _, err := d.Submit(req(i, spec, float64(i))); err != nil {
			t.Fatalf("Submit %d with m1 down: %v", i, err)
		}
	}
	if mi := d.Members(); !mi[1].Evicted {
		t.Fatalf("m1 not evicted after sustained kill: %+v", mi[1])
	}

	inj.Revive("m1")
	now = now.Add(time.Hour) // stale summaries + due probe
	d.RefreshSummaries()
	if mi := d.Members(); mi[1].Evicted {
		t.Fatalf("m1 not readmitted after revive: %+v", mi[1])
	}
}

// TestRemoveServerReleasesDispatchLock pins that the member call of
// Dispatcher.RemoveServer runs outside the dispatch lock, like
// AddServer's, Complete's and Report's: while one member sits on an
// OpRemoveServer for a transport timeout (injected latency), a
// submission must still be decided by the members that answer.
func TestRemoveServerReleasesDispatchLock(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := Config{Heuristic: "HMCT", Seed: 7, StaleAfter: 10 * time.Second,
		Now: func() time.Time { return now }}
	inj := NewScriptInjector(0)
	entered, release := make(chan struct{}), make(chan struct{})
	inj.sleep = func(time.Duration) {
		close(entered)
		<-release
	}
	members := make([]Member, 2)
	for i := range members {
		s, err := sched.ByName(cfg.Heuristic)
		if err != nil {
			t.Fatal(err)
		}
		core, err := agent.New(agent.Config{Scheduler: s, Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = Chaos(NewInProcess(fmt.Sprintf("m%d", i), core), inj)
	}
	d, err := NewWithMembers(cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	servers := []string{"sv00", "sv01", "sv02", "sv03"}
	for i, sv := range servers {
		if err := d.Member(i % 2).AddServer(sv); err != nil {
			t.Fatal(err)
		}
		d.AdoptPartition(d.Member(i%2).Name(), []string{sv})
	}
	spec := evenSpec(servers)
	if _, err := d.Submit(req(1, spec, 0)); err != nil {
		t.Fatal(err)
	}

	// m1's next call sleeps until released: that call is the removal.
	inj.SetLatency("m1", time.Millisecond)
	removed := make(chan error, 1)
	go func() { removed <- d.RemoveServer("sv01") }()
	<-entered
	inj.SetLatency("m1", 0)
	defer func() {
		close(release)
		if err := <-removed; err != nil {
			t.Errorf("RemoveServer: %v", err)
		}
		if _, ok := d.MemberOf("sv01"); ok {
			t.Error("sv01 still assigned after its removal was answered")
		}
	}()

	decided := make(chan error, 1)
	go func() {
		_, err := d.Submit(req(2, spec, 1))
		decided <- err
	}()
	select {
	case err := <-decided:
		if err != nil {
			t.Errorf("Submit during the blocked removal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Submit waited for another member's RemoveServer call: the dispatch lock is held across it")
	}
}
