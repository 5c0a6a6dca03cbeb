package casched_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"casched"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	mt := casched.GenerateSet2(60, 25, 42)
	servers, err := casched.TestbedServers(casched.Set2Servers)
	if err != nil {
		t.Fatal(err)
	}
	msf, err := casched.NewScheduler("MSF")
	if err != nil {
		t.Fatal(err)
	}
	res, err := casched.Run(casched.RunConfig{
		Servers: servers, Scheduler: msf, Seed: 1, NoiseSigma: 0.03,
	}, mt)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Completed != 60 || rep.SumFlow <= 0 {
		t.Errorf("unexpected report: %+v", rep)
	}
	if len(res.ServerStats) != 4 {
		t.Errorf("server stats missing: %d", len(res.ServerStats))
	}
}

func TestPublicAPISchedulers(t *testing.T) {
	if len(casched.Schedulers()) < 10 {
		t.Errorf("scheduler family too small: %d", len(casched.Schedulers()))
	}
	if _, err := casched.NewScheduler("nosuch"); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if casched.NewMPRandomTie().Name() != "MP" {
		t.Error("MP random-tie variant misnamed")
	}
}

func TestPublicAPIHTM(t *testing.T) {
	m := casched.NewHTM([]string{"s1"}, casched.HTMWithSync())
	spec := &casched.Spec{Problem: "p", CostOn: map[string]casched.Cost{"s1": {Compute: 10}}}
	if err := m.Place(0, spec, 0, "s1"); err != nil {
		t.Fatal(err)
	}
	c, ok := m.PredictedCompletion(0)
	if !ok || math.Abs(c-10) > 1e-9 {
		t.Errorf("prediction = %v,%v", c, ok)
	}
	sim, ok := m.Sim("s1")
	if !ok {
		t.Fatal("sim accessor broken")
	}
	chart := casched.ExtractGantt(sim)
	if !strings.Contains(chart.Render(40), "task 0") {
		t.Error("gantt render missing task row")
	}
	_ = casched.HTMWithMemoryModel() // constructor must exist
}

func TestPublicAPIMetataskCSV(t *testing.T) {
	mt := casched.GenerateSet1(20, 25, 5)
	var sb strings.Builder
	if err := casched.WriteMetataskCSV(&sb, mt); err != nil {
		t.Fatal(err)
	}
	back, err := casched.ReadMetataskCSV(strings.NewReader(sb.String()), "rt")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 20 {
		t.Errorf("round trip lost tasks: %d", back.Len())
	}
}

func TestPublicAPIScenario(t *testing.T) {
	sc := casched.Set2Scenario(30, 20, 3)
	sc.Arrival = casched.ArrivalBursty
	sc.BurstSize = 3
	mt, err := casched.GenerateScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Tasks[1].Arrival != mt.Tasks[0].Arrival {
		t.Error("bursty arrivals not grouped")
	}
	if casched.ArrivalPoisson.String() != "poisson" ||
		casched.ArrivalUniform.String() != "uniform" ||
		casched.ArrivalConstant.String() != "constant" {
		t.Error("arrival process constants broken")
	}
}

func TestPublicAPIDistributionAndMatrix(t *testing.T) {
	mt := casched.GenerateSet2(50, 20, 9)
	servers, err := casched.TestbedServers(casched.Set2Servers)
	if err != nil {
		t.Fatal(err)
	}
	runs := make(map[string][]casched.TaskResult)
	for _, name := range []string{"MCT", "MSF"} {
		s, err := casched.NewScheduler(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := casched.Run(casched.RunConfig{
			Servers: servers, Scheduler: s, Seed: 9, NoiseSigma: 0.03,
		}, mt)
		if err != nil {
			t.Fatal(err)
		}
		runs[name] = res.Tasks
	}
	d := casched.ComputeDistribution("MSF", runs["MSF"])
	if d.FlowP99 < d.FlowP50 || d.MeanFlow <= 0 {
		t.Errorf("distribution broken: %+v", d)
	}
	if !strings.Contains(d.Format(), "MSF flow") {
		t.Error("distribution format broken")
	}
	names, matrix, err := casched.SoonerMatrix(runs)
	if err != nil {
		t.Fatal(err)
	}
	out := casched.FormatSoonerMatrix(names, matrix)
	if !strings.Contains(out, "MCT") || !strings.Contains(out, "MSF") {
		t.Error("sooner matrix format broken")
	}
}

func TestPublicAPIFailureInjection(t *testing.T) {
	mt := casched.GenerateSet2(30, 15, 9)
	servers, err := casched.TestbedServers(casched.Set2Servers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := casched.NewScheduler("HMCT")
	if err != nil {
		t.Fatal(err)
	}
	res, err := casched.Run(casched.RunConfig{
		Servers: servers, Scheduler: s, Seed: 9,
		Failures: []casched.ServerFailure{{Server: "artimon", At: 100}},
	}, mt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collapses) != 1 {
		t.Errorf("injected failure not recorded: %+v", res.Collapses)
	}
}

func TestPublicAPICampaignAndFormats(t *testing.T) {
	c := casched.DefaultCampaign()
	c.N = 40
	c.Seeds = []uint64{103}
	res, err := c.RunSet(2, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(casched.FormatSet(res), "sumflow") {
		t.Error("FormatSet broken")
	}
	sweep, err := c.RateSweep(2, []float64{25}, []string{"MSF"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(casched.FormatSweep(sweep, "sumflow"), "MSF") {
		t.Error("FormatSweep broken")
	}
	if !strings.Contains(casched.FormatTable2(), "artimon") ||
		!strings.Contains(casched.FormatTable3(), "1800") ||
		!strings.Contains(casched.FormatTable4(), "spinnaker") {
		t.Error("static table formats broken")
	}
	fig, err := casched.Figure1(60)
	if err != nil || !strings.Contains(fig, "33.3%") {
		t.Errorf("Figure1 broken: %v", err)
	}
}

func TestPublicAPILiveDeployment(t *testing.T) {
	clock := casched.NewLiveClock(2000)
	s, err := casched.NewScheduler("MSF")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := casched.StartLiveAgent(casched.LiveAgentConfig{
		Scheduler: s, Clock: clock, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	srv, err := casched.StartLiveServer(casched.LiveServerConfig{
		Name: "artimon", AgentAddr: agent.Addr(), Clock: clock,
		Quantum: casched.DefaultQuantum, ReportPeriod: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mt := &casched.Metatask{Name: "api-live", Tasks: []*casched.Task{
		{ID: 0, Spec: casched.WasteCPUSpec(200), Arrival: 0},
		{ID: 1, Spec: casched.MatmulSpec(1200), Arrival: 5},
	}}
	results, err := casched.RunLiveMetatask(agent.Addr(), mt, clock)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Completed {
			t.Errorf("task %d incomplete", r.ID)
		}
	}
	rep := casched.ComputeReport("live", results)
	if rep.Completed != 2 {
		t.Errorf("live report: %+v", rep)
	}
}

func TestPublicAPIFinishSooner(t *testing.T) {
	a := []casched.TaskResult{{ID: 0, Completed: true, Completion: 5}}
	b := []casched.TaskResult{{ID: 0, Completed: true, Completion: 9}}
	n, err := casched.FinishSooner(a, b)
	if err != nil || n != 1 {
		t.Errorf("FinishSooner = %d,%v", n, err)
	}
}

func TestDefaultQuantum(t *testing.T) {
	if casched.DefaultQuantum != 2*time.Millisecond {
		t.Error("DefaultQuantum changed unexpectedly")
	}
}

// TestPublicAPIAgentCore drives the streaming agent core through the
// facade: membership, batch submission, the event stream, completion
// feedback and prediction eviction.
func TestPublicAPIAgentCore(t *testing.T) {
	msf, err := casched.NewScheduler("MSF")
	if err != nil {
		t.Fatal(err)
	}
	core, err := casched.NewAgentCore(casched.AgentCoreConfig{Scheduler: msf, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var decisions, completions int
	cancel := core.Subscribe(func(ev casched.AgentEvent) {
		switch ev.Kind {
		case casched.AgentEventDecision:
			decisions++
		case casched.AgentEventCompletion:
			completions++
		}
	})
	defer cancel()

	for _, name := range []string{"artimon", "spinnaker"} {
		core.AddServer(name)
	}
	spec := casched.WasteCPUSpec(400)
	reqs := make([]casched.AgentRequest, 4)
	for i := range reqs {
		reqs[i] = casched.AgentRequest{JobID: i, TaskID: i, Spec: spec, Arrival: 0}
	}
	decs, err := core.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decs {
		if d.Server == "" || !d.HasPrediction {
			t.Fatalf("decision %d = %+v", i, d)
		}
	}
	if decisions != 4 {
		t.Errorf("decision events = %d, want 4", decisions)
	}
	// Completion evicts the placement-time prediction but keeps the
	// trace projection.
	core.Complete(0, decs[0].Server, decs[0].Predicted)
	if completions != 1 {
		t.Errorf("completion events = %d, want 1", completions)
	}
	if _, ok := core.Prediction(0); ok {
		t.Error("prediction survived completion")
	}
	if len(core.FinalPredictions()) != 4 {
		t.Errorf("final predictions = %d, want 4", len(core.FinalPredictions()))
	}
	// Unschedulable tasks surface the sentinel.
	bad := &casched.Spec{Problem: "none", CostOn: map[string]casched.Cost{}}
	if _, err := core.Submit(casched.AgentRequest{JobID: 99, Spec: bad}); err != casched.ErrUnschedulable {
		t.Errorf("err = %v, want ErrUnschedulable", err)
	}
}

// TestPublicAPICluster drives the sharded agent through the facade:
// options, membership with a policy, batch routing, the merged event
// stream via a StatsCollector, completions and rebalancing.
func TestPublicAPICluster(t *testing.T) {
	cl, err := casched.NewCluster(
		casched.WithShards(2),
		casched.WithHeuristic("hmct"),
		casched.WithShardPolicy(casched.LeastLoadedShardPolicy()),
		casched.WithSeed(3),
		casched.WithHTMWorkers(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumShards() != 2 || !cl.UsesHTM() {
		t.Fatalf("shards=%d usesHTM=%v", cl.NumShards(), cl.UsesHTM())
	}
	stats := casched.NewStatsCollector()
	defer cl.Subscribe(stats.Collect)()

	costs := make(map[string]casched.Cost)
	for i := 0; i < 6; i++ {
		costs[string(rune('a'+i))] = casched.Cost{Compute: 10 + float64(i)}
	}
	spec := &casched.Spec{Problem: "p", Variant: 1, CostOn: costs}
	for name := range costs {
		cl.AddServer(name)
	}
	reqs := make([]casched.AgentRequest, 4)
	for i := range reqs {
		reqs[i] = casched.AgentRequest{JobID: i, TaskID: i, Spec: spec, Arrival: 0}
	}
	decs, err := cl.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decs {
		if d.Server == "" || !d.HasPrediction {
			t.Fatalf("decision %d = %+v", i, d)
		}
	}
	dec, err := cl.Submit(casched.AgentRequest{JobID: 10, TaskID: 10, Spec: spec, Arrival: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl.Complete(10, dec.Server, dec.Predicted)
	cl.Rebalance()

	st := stats.Snapshot()
	if st.Decisions != 5 || st.Completions != 1 || st.PredictionSamples != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := cl.InFlight(); got != 4 {
		t.Errorf("in-flight = %d", got)
	}
	if _, ok := casched.ShardPolicyByName("affinity"); !ok {
		t.Error("ShardPolicyByName(affinity) failed")
	}
	_ = casched.HashShardPolicy()
	_ = casched.AffinityShardPolicy(nil)
}

// TestPublicAPIFederation drives the federated dispatcher through the
// facade: options, policy membership, fresh fan-out submission, the
// merged event stream via a StatsCollector, completions and the
// member diagnostics.
func TestPublicAPIFederation(t *testing.T) {
	f, err := casched.NewFederation(
		casched.WithShards(2),
		casched.WithHeuristic("hmct"),
		casched.WithShardPolicy(casched.LeastLoadedShardPolicy()),
		casched.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumMembers() != 2 {
		t.Fatalf("members = %d, want 2", f.NumMembers())
	}
	stats := casched.NewStatsCollector()
	defer f.Subscribe(stats.Collect)()

	costs := make(map[string]casched.Cost)
	for i := 0; i < 6; i++ {
		costs[string(rune('a'+i))] = casched.Cost{Compute: 10 + float64(i)}
	}
	spec := &casched.Spec{Problem: "p", Variant: 1, CostOn: costs}
	for name := range costs {
		if err := f.AddServer(name); err != nil {
			t.Fatal(err)
		}
	}
	reqs := make([]casched.AgentRequest, 4)
	for i := range reqs {
		reqs[i] = casched.AgentRequest{JobID: i, TaskID: i, Spec: spec, Arrival: 0}
	}
	decs, err := f.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decs {
		if d.Server == "" || !d.HasPrediction {
			t.Fatalf("decision %d = %+v", i, d)
		}
	}
	dec, err := f.Submit(casched.AgentRequest{JobID: 10, TaskID: 10, Spec: spec, Arrival: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Complete(10, dec.Server, dec.Predicted); err != nil {
		t.Fatal(err)
	}

	st := stats.Snapshot()
	if st.Decisions != 5 || st.Completions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := f.InFlight(); got != 4 {
		t.Errorf("in-flight = %d", got)
	}
	for _, mi := range f.Members() {
		if mi.Evicted || !mi.Fresh {
			t.Errorf("member %s not live+fresh: %+v", mi.Name, mi)
		}
	}
	if len(f.FinalPredictions()) != 5 {
		t.Errorf("final predictions = %d, want 5", len(f.FinalPredictions()))
	}
}

// TestPublicAPIAgentCoreOptions covers the shared option idiom on
// NewAgentCore, including the rejection of cluster-only options.
func TestPublicAPIAgentCoreOptions(t *testing.T) {
	core, err := casched.NewAgentCore(casched.AgentCoreConfig{},
		casched.WithHeuristic("MSF"), casched.WithSeed(5), casched.WithHTMWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	core.AddServer("artimon")
	dec, err := core.Submit(casched.AgentRequest{JobID: 0, TaskID: 0,
		Spec: casched.WasteCPUSpec(200), Arrival: 0})
	if err != nil || dec.Server != "artimon" {
		t.Errorf("decision = %+v, %v", dec, err)
	}
	if _, err := casched.NewAgentCore(casched.AgentCoreConfig{},
		casched.WithHeuristic("MSF"), casched.WithShards(4)); err == nil {
		t.Error("NewAgentCore accepted WithShards(4)")
	}
	if _, err := casched.NewAgentCore(casched.AgentCoreConfig{},
		casched.WithHeuristic("MSF"), casched.WithShardPolicy(casched.HashShardPolicy())); err == nil {
		t.Error("NewAgentCore accepted WithShardPolicy")
	}
	for _, opt := range []casched.ClusterOption{casched.WithStaleAfter(time.Second),
		casched.WithSummaryInterval(time.Second), casched.WithRelayInterval(time.Second)} {
		if _, err := casched.NewAgentCore(casched.AgentCoreConfig{}, casched.WithHeuristic("MSF"), opt); err == nil {
			t.Error("NewAgentCore accepted a federation-only option")
		}
		if _, err := casched.NewCluster(casched.WithHeuristic("MSF"), opt); err == nil {
			t.Error("NewCluster accepted a federation-only option")
		}
	}
}

// TestPublicAPIHTMRetention covers the trace-compaction option.
func TestPublicAPIHTMRetention(t *testing.T) {
	m := casched.NewHTM([]string{"s1"}, casched.HTMWithRetention(50))
	spec := &casched.Spec{Problem: "p", Variant: 1,
		CostOn: map[string]casched.Cost{"s1": {Compute: 5}}}
	for i := 0; i < 20; i++ {
		if err := m.Place(i, spec, float64(i)*30, "s1"); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.Placements()); got >= 20 {
		t.Errorf("retention kept all %d records", got)
	}
}

// TestPublicAPIShardedLiveAgent runs a real TCP deployment with the
// dispatch layer between the wire protocol and the shard cores.
func TestPublicAPIShardedLiveAgent(t *testing.T) {
	clock := casched.NewLiveClock(2000)
	s, err := casched.NewScheduler("HMCT")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := casched.StartLiveAgent(casched.LiveAgentConfig{
		Scheduler: s, Clock: clock, Seed: 1,
		Shards: 2, ShardPolicy: casched.LeastLoadedShardPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	for _, name := range []string{"artimon", "spinnaker"} {
		srv, err := casched.StartLiveServer(casched.LiveServerConfig{
			Name: name, AgentAddr: agent.Addr(), Clock: clock,
			Quantum: casched.DefaultQuantum, ReportPeriod: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}
	mt := &casched.Metatask{Name: "sharded-live", Tasks: []*casched.Task{
		{ID: 0, Spec: casched.WasteCPUSpec(200), Arrival: 0},
		{ID: 1, Spec: casched.WasteCPUSpec(400), Arrival: 2},
		{ID: 2, Spec: casched.WasteCPUSpec(200), Arrival: 4},
	}}
	results, err := casched.RunLiveMetatask(agent.Addr(), mt, clock)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Completed {
			t.Errorf("task %d incomplete", r.ID)
		}
	}
}

// TestPublicAPISchedulerCaseInsensitive covers the registry lookup.
func TestPublicAPISchedulerCaseInsensitive(t *testing.T) {
	s, err := casched.NewScheduler("msf")
	if err != nil || s.Name() != "MSF" {
		t.Errorf("NewScheduler(msf) = %v, %v", s, err)
	}
}
