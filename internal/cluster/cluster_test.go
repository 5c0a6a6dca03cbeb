package cluster

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/sched"
	"casched/internal/task"
)

// poolSpec builds a spec solvable on every named server with the given
// compute costs.
func poolSpec(costs map[string]float64) *task.Spec {
	on := make(map[string]task.Cost, len(costs))
	for name, c := range costs {
		on[name] = task.Cost{Compute: c}
	}
	return &task.Spec{Problem: "p", Variant: 1, CostOn: on}
}

// evenSpec gives n servers sv00..sv(n-1) mildly heterogeneous costs.
func evenSpec(n int) *task.Spec {
	costs := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		costs[fmt.Sprintf("sv%02d", i)] = 20 + float64(i%7)
	}
	return poolSpec(costs)
}

func newTestCluster(t *testing.T, shards int, heuristic string, servers int, opts ...Option) *Cluster {
	t.Helper()
	opts = append([]Option{WithShards(shards), WithHeuristic(heuristic), WithSeed(1)}, opts...)
	cl, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < servers; i++ {
		cl.AddServer(fmt.Sprintf("sv%02d", i))
	}
	return cl
}

func TestClusterConstruction(t *testing.T) {
	if _, err := New(WithShards(0), WithHeuristic("HMCT")); err == nil {
		t.Error("0-shard cluster accepted")
	}
	if _, err := New(WithShards(2)); err == nil {
		t.Error("cluster without heuristic accepted")
	}
	if _, err := New(WithShards(2), WithHeuristic("nosuch")); err == nil {
		t.Error("unknown heuristic accepted")
	}
	cl, err := New(WithShards(4), WithHeuristic("msf"))
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumShards() != 4 || !cl.UsesHTM() {
		t.Errorf("shards=%d usesHTM=%v", cl.NumShards(), cl.UsesHTM())
	}
	// A registry-default instance may be reconstructed per shard; a
	// customized one must be rejected rather than silently rebuilt
	// with default parameters.
	if _, err := New(WithShards(2), WithScheduler(sched.NewKPB())); err != nil {
		t.Errorf("default-config scheduler instance rejected: %v", err)
	}
	if _, err := New(WithShards(2), WithScheduler(&sched.KPB{K: 20})); err == nil {
		t.Error("customized scheduler instance silently rebuilt with defaults")
	}
	if _, err := New(WithShards(2), WithScheduler(&sched.KPB{K: 20}),
		WithSchedulerFactory(func() (sched.Scheduler, error) { return &sched.KPB{K: 20}, nil }),
	); err != nil {
		t.Errorf("explicit factory rejected: %v", err)
	}
}

func TestMembershipRouting(t *testing.T) {
	cl := newTestCluster(t, 4, "HMCT", 16)
	if got := len(cl.Servers()); got != 16 {
		t.Fatalf("servers = %d", got)
	}
	// Every server has a home and the shards partition the pool.
	total := 0
	for i := 0; i < cl.NumShards(); i++ {
		total += cl.Shard(i).ServerCount()
	}
	if total != 16 {
		t.Errorf("shard partition covers %d of 16", total)
	}
	sh, ok := cl.ShardOf("sv03")
	if !ok {
		t.Fatal("sv03 has no home")
	}
	// Hash routing is stable: re-adding is idempotent.
	cl.AddServer("sv03")
	if again, _ := cl.ShardOf("sv03"); again != sh {
		t.Error("re-add moved the server")
	}
	cl.RemoveServer("sv03")
	if _, ok := cl.ShardOf("sv03"); ok {
		t.Error("removed server still homed")
	}
	if got := len(cl.Servers()); got != 15 {
		t.Errorf("servers after removal = %d", got)
	}
}

func TestLeastLoadedRebalance(t *testing.T) {
	cl, err := New(WithShards(4), WithHeuristic("HMCT"), WithPolicy(LeastLoaded()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		cl.AddServer(fmt.Sprintf("sv%02d", i))
	}
	for i := 0; i < cl.NumShards(); i++ {
		if got := cl.Shard(i).ServerCount(); got != 2 {
			t.Errorf("shard %d holds %d servers, want 2", i, got)
		}
	}
	// Empty one shard; auto-rebalance must level the partition again.
	victims := []string{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("sv%02d", i)
		if sh, _ := cl.ShardOf(name); sh == 0 {
			victims = append(victims, name)
		}
	}
	for _, name := range victims {
		cl.RemoveServer(name)
	}
	maxC, minC := 0, 8
	for i := 0; i < cl.NumShards(); i++ {
		c := cl.Shard(i).ServerCount()
		if c > maxC {
			maxC = c
		}
		if c < minC {
			minC = c
		}
	}
	if maxC-minC >= 2 {
		t.Errorf("auto-rebalance left skew: max %d min %d", maxC, minC)
	}
}

func TestExplicitRebalanceMigratesAndKeepsCompleting(t *testing.T) {
	// Hash policy: no auto-balance. Build a deliberately skewed pool,
	// place work, then rebalance and verify in-flight jobs still
	// resolve through their placing shard.
	cl, err := New(WithShards(2), WithHeuristic("HMCT"), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	spec := evenSpec(6)
	for i := 0; i < 6; i++ {
		cl.AddServer(fmt.Sprintf("sv%02d", i))
	}
	dec, err := cl.Submit(agent.Request{JobID: 1, TaskID: 1, Spec: spec, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := cl.ShardOf(dec.Server)
	// Force skew by removing everything from the other shard... or
	// simply call Rebalance and check the invariant directly.
	cl.Rebalance()
	maxC, minC := 0, 6
	for i := 0; i < cl.NumShards(); i++ {
		c := cl.Shard(i).ServerCount()
		if c > maxC {
			maxC = c
		}
		if c < minC {
			minC = c
		}
	}
	if maxC-minC >= 2 {
		t.Errorf("rebalance left skew: max %d min %d", maxC, minC)
	}
	done := cl.Complete(1, dec.Server, 25)
	if done.TaskID != 1 {
		t.Errorf("completion resolved to %+v", done)
	}
	_ = before
	if cl.InFlight() != 0 {
		t.Errorf("in-flight after completion = %d", cl.InFlight())
	}
}

func TestSubmitCommitsOnGlobalBest(t *testing.T) {
	// One server is far faster than every other; whatever shard it
	// lands on, the fan-out must commit there.
	cl, err := New(WithShards(4), WithHeuristic("HMCT"), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string]float64{"fast": 5}
	for i := 0; i < 12; i++ {
		costs[fmt.Sprintf("sv%02d", i)] = 50
	}
	spec := poolSpec(costs)
	cl.AddServer("fast")
	for i := 0; i < 12; i++ {
		cl.AddServer(fmt.Sprintf("sv%02d", i))
	}
	dec, err := cl.Submit(agent.Request{JobID: 0, TaskID: 0, Spec: spec, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Server != "fast" {
		t.Errorf("fan-out picked %q, want fast", dec.Server)
	}
	if !dec.HasPrediction || math.Abs(dec.Predicted-5) > 1e-9 {
		t.Errorf("decision = %+v", dec)
	}
	// The prediction is findable through the cluster surface.
	if p, ok := cl.Prediction(0); !ok || math.Abs(p-5) > 1e-9 {
		t.Errorf("Prediction = %v,%v", p, ok)
	}
	if got := len(cl.FinalPredictions()); got != 1 {
		t.Errorf("final predictions = %d", got)
	}
}

func TestSubmitUnschedulableAndPartialEligibility(t *testing.T) {
	cl := newTestCluster(t, 4, "HMCT", 8)
	bad := &task.Spec{Problem: "q", Variant: 1, CostOn: map[string]task.Cost{"elsewhere": {Compute: 1}}}
	if _, err := cl.Submit(agent.Request{JobID: 9, Spec: bad}); !errors.Is(err, agent.ErrUnschedulable) {
		t.Errorf("err = %v, want ErrUnschedulable", err)
	}
	// A spec solvable on a single server routes to that server's shard.
	only := &task.Spec{Problem: "r", Variant: 1, CostOn: map[string]task.Cost{"sv05": {Compute: 3}}}
	dec, err := cl.Submit(agent.Request{JobID: 10, TaskID: 10, Spec: only, Arrival: 0})
	if err != nil || dec.Server != "sv05" {
		t.Errorf("decision = %+v, %v; want sv05", dec, err)
	}
}

func TestSubmitBatchRoutesAndCommits(t *testing.T) {
	cl := newTestCluster(t, 4, "HMCT", 16)
	spec := evenSpec(16)
	mkBatch := func(base int, at float64, n int) []agent.Request {
		reqs := make([]agent.Request, n)
		for i := range reqs {
			reqs[i] = agent.Request{JobID: base + i, TaskID: base + i, Spec: spec, Arrival: at}
		}
		return reqs
	}
	decs, err := cl.SubmitBatch(mkBatch(0, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	first := map[int]bool{}
	for i, d := range decs {
		if d.Server == "" || !d.HasPrediction {
			t.Fatalf("decision %d = %+v", i, d)
		}
		sh, _ := cl.ShardOf(d.Server)
		first[sh] = true
	}
	if len(first) != 1 {
		t.Errorf("first batch spread over %d shards, want hierarchical routing to 1", len(first))
	}
	// The next burst routes away from the now-loaded shard.
	decs2, err := cl.SubmitBatch(mkBatch(100, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	second := map[int]bool{}
	for _, d := range decs2 {
		sh, _ := cl.ShardOf(d.Server)
		second[sh] = true
	}
	for sh := range second {
		if first[sh] {
			t.Errorf("second burst reused loaded shard %d", sh)
		}
	}
	if cl.InFlight() != 16 {
		t.Errorf("in-flight = %d, want 16", cl.InFlight())
	}
	// Batch members only one shard can solve still commit there, and
	// unschedulable members surface joined errors without sinking the
	// batch.
	only := &task.Spec{Problem: "r", Variant: 1, CostOn: map[string]task.Cost{"sv00": {Compute: 3}}}
	bad := &task.Spec{Problem: "q", Variant: 1, CostOn: map[string]task.Cost{"elsewhere": {Compute: 1}}}
	mixed := []agent.Request{
		{JobID: 200, TaskID: 200, Spec: spec, Arrival: 2},
		{JobID: 201, TaskID: 201, Spec: only, Arrival: 2},
		{JobID: 202, TaskID: 202, Spec: bad, Arrival: 2},
	}
	decs3, err := cl.SubmitBatch(mixed)
	if !errors.Is(err, agent.ErrUnschedulable) {
		t.Errorf("mixed batch err = %v, want wrapped ErrUnschedulable", err)
	}
	if decs3[0].Server == "" || decs3[1].Server != "sv00" || decs3[2].Server != "" {
		t.Errorf("mixed batch decisions = %+v", decs3)
	}
}

func TestMergedEventStream(t *testing.T) {
	cl := newTestCluster(t, 4, "HMCT", 16)
	var events []agent.Event
	cancel := cl.Subscribe(func(ev agent.Event) { events = append(events, ev) })
	sc := agent.NewStatsCollector()
	cancel2 := cl.Subscribe(sc.Collect)
	defer cancel2()
	spec := evenSpec(16)
	reqs := make([]agent.Request, 6)
	for i := range reqs {
		reqs[i] = agent.Request{JobID: i, TaskID: i, Spec: spec, Arrival: 0}
	}
	decs, err := cl.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	cl.Complete(0, decs[0].Server, decs[0].Predicted)
	cl.Report(decs[1].Server, 1, 5)

	var nDec, nDone, nRep int
	for _, ev := range events {
		switch ev.Kind {
		case agent.EventDecision:
			nDec++
		case agent.EventCompletion:
			nDone++
		case agent.EventReport:
			nRep++
		}
	}
	if nDec != 6 || nDone != 1 || nRep != 1 {
		t.Errorf("merged stream: %d decisions, %d completions, %d reports", nDec, nDone, nRep)
	}
	// StatsCollector consumes the merged stream directly.
	cl.Complete(1, decs[1].Server, decs[1].Predicted+1)
	st := sc.Snapshot()
	if st.Decisions != 6 || st.Completions != 2 || st.PredictionSamples != 2 {
		t.Fatalf("collector on merged stream: %+v", st)
	}
	// Job 0 completed exactly on prediction, job 1 one second late.
	if math.Abs(st.MeanAbsPredictionError-0.5) > 1e-9 {
		t.Errorf("collector MAE = %v, want 0.5", st.MeanAbsPredictionError)
	}

	cancel()
	before := len(events)
	cl.Report(decs[2].Server, 1, 6)
	if len(events) != before {
		t.Error("cancelled subscriber still receiving")
	}
}

func TestUnscoredHeuristicRotates(t *testing.T) {
	cl := newTestCluster(t, 4, "RoundRobin", 16)
	spec := evenSpec(16)
	shards := map[int]int{}
	servers := map[string]int{}
	for i := 0; i < 64; i++ {
		dec, err := cl.Submit(agent.Request{JobID: i, TaskID: i, Spec: spec, Arrival: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		sh, _ := cl.ShardOf(dec.Server)
		shards[sh]++
		servers[dec.Server]++
	}
	if len(shards) != 4 {
		t.Errorf("unscored rotation used %d of 4 shards: %v", len(shards), shards)
	}
	// RoundRobin's fairness survives sharding: with 64 submissions
	// over 16 servers, every server receives work (fanning the
	// evaluation out would advance losing shards' cursors and starve
	// servers permanently).
	if len(servers) != 16 {
		t.Errorf("round-robin reached %d of 16 servers: %v", len(servers), servers)
	}
}

func TestAffinityPolicyGroupsClasses(t *testing.T) {
	cl, err := New(WithShards(4), WithHeuristic("HMCT"), WithPolicy(Affinity(nil)))
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"sun", "sgi", "alpha"} {
		for i := 0; i < 4; i++ {
			cl.AddServer(fmt.Sprintf("%s%d", class, i))
		}
	}
	for _, class := range []string{"sun", "sgi", "alpha"} {
		want, _ := cl.ShardOf(class + "0")
		for i := 1; i < 4; i++ {
			if got, _ := cl.ShardOf(fmt.Sprintf("%s%d", class, i)); got != want {
				t.Errorf("%s%d on shard %d, class home %d", class, i, got, want)
			}
		}
	}
	if DefaultClass("bigsun12") != "bigsun" {
		t.Errorf("DefaultClass = %q", DefaultClass("bigsun12"))
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"hash", "least-loaded", "affinity"} {
		if p, ok := ByName(name); !ok || p == nil {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nosuch"); ok {
		t.Error("unknown policy resolved")
	}
}

// TestRebalanceLivenessOnCorruptState drives the victim-scan guard: if
// counts claims a shard is over-full while home maps no server to it,
// Rebalance must repair the bookkeeping from home (the authoritative
// map) and terminate instead of migrating a phantom "" server forever.
func TestRebalanceLivenessOnCorruptState(t *testing.T) {
	cl := newTestCluster(t, 3, "HMCT", 6, WithPolicy(LeastLoaded()))

	// Corrupt the routing state: counts says shard 0 is massively
	// over-full, home disagrees.
	cl.mu.Lock()
	cl.counts[0] += 5
	cl.mu.Unlock()

	done := make(chan int, 1)
	go func() { done <- cl.Rebalance() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Rebalance looped forever on corrupt counts")
	}

	// The repair rebuilt counts from home: they sum to the real server
	// count and no phantom "" server was registered anywhere.
	cl.mu.Lock()
	total := 0
	for _, c := range cl.counts {
		total += c
	}
	_, phantom := cl.home[""]
	cl.mu.Unlock()
	if total != 6 || phantom {
		t.Errorf("after repair: counts sum %d (want 6), phantom server registered: %v", total, phantom)
	}
	for i := 0; i < cl.NumShards(); i++ {
		for _, s := range cl.Shard(i).Servers() {
			if s == "" {
				t.Errorf("shard %d holds phantom server", i)
			}
		}
	}
	// A later real rebalance still works.
	cl.AddServer("sv99")
	cl.RemoveServer("sv00")
	if got := len(cl.Servers()); got != 6 {
		t.Errorf("servers after churn = %d", got)
	}
}

// TestBatchRoutingPrefersDrainedShard pins the HTM-backed routing
// signal end-to-end: after a burst loads one shard, the next burst's
// power-of-two sample must route to a shard with an earlier projected
// drain — never back onto the saturated one.
func TestBatchRoutingPrefersDrainedShard(t *testing.T) {
	cl := newTestCluster(t, 2, "HMCT", 8)
	spec := evenSpec(8)
	mkBatch := func(base int, at float64, n int) []agent.Request {
		reqs := make([]agent.Request, n)
		for i := range reqs {
			reqs[i] = agent.Request{JobID: base + i, TaskID: base + i, Spec: spec, Arrival: at}
		}
		return reqs
	}
	decs, err := cl.SubmitBatch(mkBatch(0, 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := cl.ShardOf(decs[0].Server)
	// Drive follow-up single-task bursts: as long as the other shard
	// still has an idle server, its min projected drain (the trace
	// time, ≈0.5) beats the saturated shard's (≈20s of queued compute),
	// so every power-of-two comparison — with 2 shards, always both —
	// must route away. Three rounds keep at least one of the other
	// shard's four servers idle in the HTM's view.
	for round := 0; round < 3; round++ {
		decs, err = cl.SubmitBatch(mkBatch(100*(round+1), 0.5, 1))
		if err != nil {
			t.Fatal(err)
		}
		sh, _ := cl.ShardOf(decs[0].Server)
		if sh == loaded {
			t.Fatalf("round %d routed to the saturated shard %d", round, loaded)
		}
	}
}

// TestClusterBatchAssignmentOption: WithBatchAssignment flows through
// to every shard and spreads a contended burst one task per server,
// where the default greedy shard piles onto the best server.
func TestClusterBatchAssignmentOption(t *testing.T) {
	costs := map[string]float64{"sv00": 10, "sv01": 25}
	spec := poolSpec(costs)
	mk := func() []agent.Request {
		return []agent.Request{
			{JobID: 0, TaskID: 0, Spec: spec, Arrival: 0},
			{JobID: 1, TaskID: 1, Spec: spec, Arrival: 0},
		}
	}

	greedy := newTestCluster(t, 1, "HMCT", 2)
	gdecs, err := greedy.SubmitBatch(mk())
	if err != nil {
		t.Fatal(err)
	}
	if gdecs[0].Server != "sv00" || gdecs[1].Server != "sv00" {
		t.Fatalf("greedy cluster decisions = %+v, want both on sv00", gdecs)
	}

	matched := newTestCluster(t, 1, "HMCT", 2, WithBatchAssignment(true))
	mdecs, err := matched.SubmitBatch(mk())
	if err != nil {
		t.Fatal(err)
	}
	servers := map[string]bool{mdecs[0].Server: true, mdecs[1].Server: true}
	if !servers["sv00"] || !servers["sv01"] {
		t.Errorf("matched cluster decisions = %+v, want one per server", mdecs)
	}
}

// TestOneOptionSet pins the one option set: a federation accepts every
// option a Cluster accepts, and a Cluster and a single core refuse the
// settings only a federation reads — through the options and through
// an explicit DispatcherConfig alike.
func TestOneOptionSet(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opt     Option
		fedOnly bool
	}{
		{"WithShards", WithShards(2), false},
		{"WithPolicy", WithPolicy(LeastLoaded()), false},
		{"WithHeuristic", WithHeuristic("MSF"), false},
		{"WithScheduler", WithScheduler(sched.NewHMCT()), false},
		{"WithSchedulerFactory", WithSchedulerFactory(func() (sched.Scheduler, error) { return sched.NewMCT(), nil }), false},
		{"WithSeed", WithSeed(3), false},
		{"WithHTMRetention", WithHTMRetention(60), false},
		{"WithHTMSync", WithHTMSync(true), false},
		{"WithBatchAssignment", WithBatchAssignment(true), false},
		{"WithTenantShares", WithTenantShares(map[string]float64{"gold": 2}), false},
		{"WithAdmission", WithAdmission(true), false},
		{"WithRelay", WithRelay(true), false},
		{"WithIntakeLimit", WithIntakeLimit(10, 5), false},
		{"WithPlacedWindow", WithPlacedWindow(100), false},
		{"WithStaleAfter", WithStaleAfter(time.Second), true},
		{"WithSummaryInterval", WithSummaryInterval(time.Second), true},
		{"WithRelayInterval", WithRelayInterval(time.Second), true},
		{"WithNow", WithNow(time.Now), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithHeuristic("HMCT"), tc.opt}
			f, err := NewFederation(opts...)
			if err != nil {
				t.Fatalf("NewFederation: %v", err)
			}
			f.Close()
			cl, err := New(opts...)
			if tc.fedOnly != (err != nil) {
				t.Fatalf("New: err = %v, federation only: %v", err, tc.fedOnly)
			}
			if err == nil {
				cl.Close()
			}
			if !tc.fedOnly {
				return
			}
			if _, err := CoreConfig(agent.Config{}, opts...); err == nil {
				t.Fatal("CoreConfig accepted a federation-only option")
			}
		})
	}
	if _, err := NewFromConfig(Config{Shards: 1, Core: agent.Config{Scheduler: sched.NewHMCT()},
		Dispatch: DispatcherConfig{MaxFailures: 3}}); err == nil {
		t.Error("NewFromConfig accepted DispatcherConfig.MaxFailures")
	}
}
