package fed

// Self-healing federation tests: graceful leave with partition
// reassignment, dead-member re-partitioning after the grace period,
// the promoted dispatcher's replay dedup, the standby follower's
// ledger mirror — and the full TCP failover e2e (kill the leader
// mid-metatask, a standby wins the election, clients fail over, the
// metatask completes with zero duplicate placements).

import (
	"fmt"
	"net/rpc"
	"sync"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/ha"
	"casched/internal/live"
	"casched/internal/sched"
	"casched/internal/workload"
)

func TestFedHALeaveReassignsPartition(t *testing.T) {
	d, _, servers, _ := newFlakyFed(t, 2, 4, nil)
	if err := d.Leave("m1"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	for _, sv := range servers {
		if i, ok := d.MemberOf(sv); !ok || i != 0 {
			t.Errorf("server %s homed on member %d after leave, want 0", sv, i)
		}
	}
	if got := d.Reassigned(); got != 2 {
		t.Errorf("reassigned = %d, want 2 (m1's half of the pool)", got)
	}
	mi := d.Members()
	if !mi[1].Left || mi[1].Servers != 0 {
		t.Errorf("departed member state = %+v, want Left with an empty partition", mi[1])
	}
	if mi[0].Servers != 4 {
		t.Errorf("survivor owns %d servers, want 4", mi[0].Servers)
	}
	// Routing must keep working on the survivor alone.
	dec, err := d.Submit(req(1, evenSpec(servers), 1))
	if err != nil {
		t.Fatalf("submit after leave: %v", err)
	}
	if i, _ := d.MemberOf(dec.Server); i != 0 {
		t.Errorf("post-leave placement landed on member %d, want 0", i)
	}
	// A departed member is not probed back: unlike eviction there is
	// no readmission path short of an explicit rejoin.
	d.RefreshSummaries()
	if mi := d.Members(); !mi[1].Left {
		t.Errorf("gossip readmitted a departed member: %+v", mi[1])
	}
	// An explicit rejoin under the old name clears the departure; the
	// member restarts with an empty partition.
	s, err := sched.ByName("HMCT")
	if err != nil {
		t.Fatal(err)
	}
	core, err := agent.New(agent.Config{Scheduler: s, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddMember(NewInProcess("m1", core)); err != nil {
		t.Fatalf("rejoin after leave: %v", err)
	}
	if mi := d.Members(); mi[1].Left || mi[1].Servers != 0 {
		t.Errorf("rejoined member state = %+v, want not-left with an empty partition", mi[1])
	}
}

func TestFedHAReassignDeadAfterGrace(t *testing.T) {
	d, flakies, servers, now := newFlakyFed(t, 2, 4, func(c *Config) {
		c.ReassignAfter = 5 * time.Second
		c.SummaryInterval = time.Hour // no inline refresh noise
	})
	flakies[1].down = true
	spec := evenSpec(servers)
	for i := 0; i < 4; i++ {
		d.Submit(req(100+i, spec, 1))
	}
	if mi := d.Members(); !mi[1].Evicted {
		t.Fatalf("member not evicted: %+v", mi[1])
	}
	// Within the grace period nothing moves: a briefly partitioned
	// member keeps its servers, exactly the pre-HA behavior.
	d.ReassignDead()
	if got := d.Reassigned(); got != 0 {
		t.Fatalf("reassigned %d servers inside the grace period, want 0", got)
	}
	*now = now.Add(6 * time.Second)
	d.ReassignDead()
	if got := d.Reassigned(); got != 2 {
		t.Fatalf("reassigned = %d after the grace period, want 2", got)
	}
	for _, sv := range servers {
		if i, ok := d.MemberOf(sv); !ok || i != 0 {
			t.Errorf("server %s homed on member %d, want 0", sv, i)
		}
	}
	// Idempotent: the dead member's partition is empty now.
	d.ReassignDead()
	if got := d.Reassigned(); got != 2 {
		t.Errorf("second tick moved more servers: %d", got)
	}
}

func TestFedHAResumeDedup(t *testing.T) {
	d, _, servers, _ := newFlakyFed(t, 2, 4, nil)
	spec := evenSpec(servers)
	// Adopt a replicated placement record, as a promotion does, then
	// replay the same job: the recorded decision comes back and no
	// member places it a second time.
	d.AdoptPlacements(map[int]ha.Placement{42: {Member: "m0", Server: "sv00", At: 1}})
	if got := d.InFlight(); got != 1 {
		t.Fatalf("in-flight after adoption = %d, want 1", got)
	}
	dec, err := d.Submit(req(42, spec, 2))
	if err != nil {
		t.Fatalf("replayed submit: %v", err)
	}
	if dec.Server != "sv00" {
		t.Fatalf("replayed decision = %q, want the recorded sv00", dec.Server)
	}
	if got := d.InFlight(); got != 1 {
		t.Fatalf("replay grew in-flight to %d, want 1", got)
	}
	// Fresh jobs still place normally, and the adopted record drains
	// through the ordinary completion path.
	if _, err := d.Submit(req(43, spec, 2)); err != nil {
		t.Fatalf("fresh submit: %v", err)
	}
	if err := d.Complete(42, "sv00", 3); err != nil {
		t.Fatalf("complete adopted job: %v", err)
	}
	if got := d.InFlight(); got != 1 {
		t.Errorf("in-flight after completion = %d, want 1 (job 43)", got)
	}
	// Records for unknown members are skipped, not adopted blind.
	d.AdoptPlacements(map[int]ha.Placement{77: {Member: "nobody", Server: "sv01", At: 1}})
	if got := d.InFlight(); got != 1 {
		t.Errorf("unknown-member record adopted: in-flight = %d, want 1", got)
	}
}

func TestFedHAFollowerMirrorsLedger(t *testing.T) {
	// Relay-enabled in-process members: the follower's mirror must
	// converge to the members' ledgers — decisions appear, completions
	// remove them, and lag reads zero once caught up.
	now := time.Unix(1000, 0)
	members := make([]Member, 2)
	for i := range members {
		s, err := sched.ByName("HMCT")
		if err != nil {
			t.Fatal(err)
		}
		core, err := agent.New(agent.Config{Scheduler: s, Seed: 7, Relay: true})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = NewInProcess(fmt.Sprintf("m%d", i), core)
	}
	d, err := NewWithMembers(Config{
		Heuristic: "HMCT", Seed: 7, StaleAfter: 10 * time.Second,
		Now: func() time.Time { return now },
	}, members)
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
	placed := map[int]string{}
	for i := 0; i < 6; i++ {
		dec, err := d.Submit(req(200+i, spec, 1))
		if err != nil {
			t.Fatal(err)
		}
		placed[200+i] = dec.Server
	}
	f := ha.NewFollower(0)
	d.RefreshSummaries() // ledger heads into summaries (NoteLedger)
	d.FollowRelay(f)
	if got := f.Len(); got != 6 {
		t.Fatalf("mirror holds %d placements, want 6", got)
	}
	for job, p := range f.Placements() {
		if p.Server != placed[job] {
			t.Errorf("mirror job %d on %s, want %s", job, p.Server, placed[job])
		}
		if i, _ := d.MemberOf(p.Server); d.Member(i).Name() != p.Member {
			t.Errorf("mirror job %d attributed to %s, server owned by %s", job, p.Member, d.Member(i).Name())
		}
	}
	for lag, v := range f.Lags() {
		if v != 0 {
			t.Errorf("lag[%s] = %d after synchronous pull, want 0", lag, v)
		}
	}
	// Completions drain the mirror.
	for job, sv := range placed {
		if err := d.Complete(job, sv, 2); err != nil {
			t.Fatal(err)
		}
	}
	d.FollowRelay(f)
	if got := f.Len(); got != 0 {
		t.Errorf("mirror holds %d placements after completions, want 0", got)
	}
}

// TestFedHAFailover is the dispatcher-kill e2e: three dispatcher
// replicas over TCP (one primary, two standbys), two member agents
// and four computational servers wired to the full replica list, and
// a client metatask driven through the standard protocol. The leader
// is killed mid-metatask; a standby must win the election, fence the
// members, adopt the replicated placement map, and finish the run —
// every task completing exactly once. Then one member leaves
// gracefully and the survivor absorbs its partition.
func TestFedHAFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("federation HA e2e needs sockets and scaled wall time")
	}
	clock := live.NewClock(400)

	newDispatcher := func(id string, standby bool) *Server {
		fs, err := StartServer(ServerConfig{
			Heuristic:       "HMCT",
			Policy:          cluster.LeastLoaded(),
			Clock:           clock,
			Seed:            7,
			Timeout:         time.Second,
			SummaryInterval: 50 * time.Millisecond,
			StaleAfter:      2 * time.Second,
			MaxFailures:     3,
			Relay:           true,
			RelayInterval:   25 * time.Millisecond,
			HA: &HAConfig{
				ID:        id,
				Lease:     400 * time.Millisecond,
				Heartbeat: 100 * time.Millisecond,
				Standby:   standby,
			},
		})
		if err != nil {
			t.Fatalf("dispatcher %s: %v", id, err)
		}
		return fs
	}
	fsA := newDispatcher("da", false)
	defer fsA.Close()
	fsB := newDispatcher("db", true)
	defer fsB.Close()
	fsC := newDispatcher("dc", true)
	defer fsC.Close()
	replicas := map[string]*Server{"da": fsA, "db": fsB, "dc": fsC}
	for id, fs := range replicas {
		peers := map[string]string{}
		for pid, p := range replicas {
			if pid != id {
				peers[pid] = p.Addr()
			}
		}
		fs.SetHAPeers(peers)
	}
	addrList := fsA.Addr() + "," + fsB.Addr() + "," + fsC.Addr()

	waitFor := func(what string, timeout time.Duration, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			if ok() {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitFor("primary to win the first election", 10*time.Second, func() bool {
		return fsA.HAStatus().IsLeader
	})
	if st := fsB.HAStatus(); st.IsLeader {
		t.Fatalf("standby db claims leadership at start: %+v", st)
	}

	// Duplicate detection at the ground truth: every decision a member
	// core ever commits, counted per job. Kill the leader once enough
	// of the metatask is in flight.
	var decMu sync.Mutex
	decCount := map[int]int{}
	killCh := make(chan struct{})
	var killOnce sync.Once
	onEvent := func(ev agent.Event) {
		if ev.Kind != agent.EventDecision {
			return
		}
		decMu.Lock()
		decCount[ev.JobID]++
		if len(decCount) >= 6 {
			killOnce.Do(func() { close(killCh) })
		}
		decMu.Unlock()
	}

	newMember := func(name string) *live.Agent {
		s, err := sched.ByName("HMCT")
		if err != nil {
			t.Fatal(err)
		}
		m, err := live.StartAgent(live.AgentConfig{
			Scheduler: s,
			Clock:     clock,
			Seed:      7,
			Join:      addrList,
			Name:      name,
		})
		if err != nil {
			t.Fatalf("member %s: %v", name, err)
		}
		m.Core().Subscribe(onEvent)
		return m
	}
	m1 := newMember("m1")
	defer m1.Close()
	m2 := newMember("m2")
	defer m2.Close()
	for id, fs := range replicas {
		if got := fs.Dispatcher().NumMembers(); got != 2 {
			t.Fatalf("replica %s sees %d members, want 2", id, got)
		}
	}

	serverNames := []string{"artimon", "cabestan", "spinnaker", "valette"}
	for _, name := range serverNames {
		srv, err := live.StartServer(live.ServerConfig{
			Name:      name,
			AgentAddr: addrList,
			Clock:     clock,
		})
		if err != nil {
			t.Fatalf("server %s: %v", name, err)
		}
		defer srv.Close()
	}

	go func() {
		<-killCh
		fsA.Close()
	}()

	mt := workload.MustGenerate(workload.Set2(24, 4, 5))
	results, err := live.RunMetatask(addrList, mt, clock)
	if err != nil {
		t.Fatalf("metatask across failover: %v", err)
	}
	select {
	case <-killCh:
	default:
		t.Fatal("metatask finished before the leader was killed; raise the task count")
	}
	for _, r := range results {
		if !r.Completed {
			t.Fatalf("task %d did not complete", r.ID)
		}
	}
	decMu.Lock()
	for job, n := range decCount {
		if n > 1 {
			t.Errorf("job %d placed %d times — duplicate placement across failover", job, n)
		}
	}
	decMu.Unlock()

	// A standby must lead now, at a higher term than the first
	// election's, and the in-flight ledger must drain through it.
	var leader *Server
	waitFor("a standby to take over", 15*time.Second, func() bool {
		for _, fs := range []*Server{fsB, fsC} {
			if fs.HAStatus().IsLeader {
				leader = fs
				return true
			}
		}
		return false
	})
	if st := leader.HAStatus(); st.Term < 2 {
		t.Errorf("post-failover term = %d, want >= 2", st.Term)
	}
	waitFor("the new leader's in-flight ledger to drain", 15*time.Second, func() bool {
		return leader.Dispatcher().InFlight() == 0
	})

	// Graceful leave: m2 drains and departs; the leader re-homes its
	// partition onto m1 and scheduling keeps working on the survivor.
	m1Idx := -1
	for i := 0; i < leader.Dispatcher().NumMembers(); i++ {
		if leader.Dispatcher().Member(i).Name() == "m1" {
			m1Idx = i
		}
	}
	if m1Idx < 0 {
		t.Fatal("m1 not found on the new leader")
	}
	m2.Leave(5 * time.Second)
	waitFor("m2's partition to re-home onto m1", 10*time.Second, func() bool {
		for _, sv := range serverNames {
			if i, ok := leader.Dispatcher().MemberOf(sv); !ok || i != m1Idx {
				return false
			}
		}
		return true
	})
	if st := leader.HAStatus(); st.ReassignedServers < 2 {
		t.Errorf("reassigned-servers counter = %d, want >= 2", st.ReassignedServers)
	}

	disp, err := rpc.Dial("tcp", leader.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	srvConns := map[string]*rpc.Client{}
	defer func() {
		for _, c := range srvConns {
			c.Close()
		}
	}()
	for i := 0; i < 4; i++ {
		key := 5000 + i
		var rep live.ScheduleReply
		// An empty Addr means the chosen server has not re-registered
		// its RPC address with this leader yet; the real client retries
		// exactly like this (the placement itself is deduped).
		waitFor(fmt.Sprintf("task %d to get a routable server", key), 10*time.Second, func() bool {
			rep = live.ScheduleReply{}
			if err := disp.Call("Agent.Schedule", live.ScheduleArgs{
				TaskKey: key, Problem: "wastecpu", Variant: 200, Arrival: clock.Now(),
			}, &rep); err != nil {
				t.Fatalf("schedule after leave: %v", err)
			}
			return rep.Addr != ""
		})
		if i, _ := leader.Dispatcher().MemberOf(rep.Server); i != m1Idx {
			t.Errorf("post-leave task %d placed via departed member (server %s)", key, rep.Server)
		}
		sc, ok := srvConns[rep.Addr]
		if !ok {
			sc, err = rpc.Dial("tcp", rep.Addr)
			if err != nil {
				t.Fatalf("dial server %s: %v", rep.Server, err)
			}
			srvConns[rep.Addr] = sc
		}
		var sub live.SubmitReply
		if err := sc.Call("Server.Submit", live.SubmitArgs{
			TaskKey: key, Problem: "wastecpu", Variant: 200,
		}, &sub); err != nil {
			t.Fatalf("submit after leave: %v", err)
		}
	}
}

// TestFedHADrainStepsDown pins the graceful-shutdown half: a leader
// that drains resigns its lease, and a peer takes over without
// waiting out a failure detection.
func TestFedHADrainStepsDown(t *testing.T) {
	if testing.Short() {
		t.Skip("needs sockets and election wall time")
	}
	clock := live.NewClock(1000)
	mk := func(id string, standby bool) *Server {
		fs, err := StartServer(ServerConfig{
			Heuristic: "HMCT", Clock: clock, Seed: 7,
			SummaryInterval: 50 * time.Millisecond,
			HA: &HAConfig{
				ID: id, Lease: 300 * time.Millisecond,
				Heartbeat: 75 * time.Millisecond, Standby: standby,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	fsA := mk("da", false)
	defer fsA.Close()
	fsB := mk("db", true)
	defer fsB.Close()
	fsC := mk("dc", true)
	defer fsC.Close()
	replicas := map[string]*Server{"da": fsA, "db": fsB, "dc": fsC}
	for id, fs := range replicas {
		peers := map[string]string{}
		for pid, p := range replicas {
			if pid != id {
				peers[pid] = p.Addr()
			}
		}
		fs.SetHAPeers(peers)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !fsA.HAStatus().IsLeader {
		time.Sleep(20 * time.Millisecond)
	}
	if !fsA.HAStatus().IsLeader {
		t.Fatal("primary never led")
	}
	fsA.Drain(time.Second)
	if fsA.HAStatus().IsLeader {
		t.Fatal("drained leader still claims leadership")
	}
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fsB.HAStatus().IsLeader || fsC.HAStatus().IsLeader {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("no standby took over after the leader drained")
}
