package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"casched/internal/agent"
	"casched/internal/fed"
	"casched/internal/sched"
)

// smokeOpts runs about 200 decisions per workload with every check on.
func smokeOpts(wl workload, dir string) runOpts {
	return runOpts{seed: 7, seconds: 2, limit: int64(200 / wl.Burst / wl.Callers), warmup: 64, outDir: dir}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		r, err := run(wl, smokeOpts(wl, ""), false)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		for _, c := range r.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", wl.Name, c.Name, c.Detail)
			}
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 190 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", wl.Name, r.Correct, r.Attempted, r.Failed)
		}
		if wl.Shape != "fed-wire" && len(r.Checks) != 3 {
			t.Errorf("%s: want the replay, exactly-once and decision checks, got %d checks", wl.Name, len(r.Checks))
		}
		line := r.lastLine()
		for _, d := range endToEndMetrics {
			if m, ok := line.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v", wl.Name, d.Name, m)
			}
		}
	}
}

func TestTracedSmoke(t *testing.T) {
	for _, name := range []string{"cluster_busy_128", "fed_wire_128"} {
		wl, _ := workloadByName(name)
		r, err := run(wl, smokeOpts(wl, t.TempDir()), true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d checks=%+v", name, r.Correct, r.Failed, r.Checks)
		}
		line := r.lastLine()
		if len(line.Metrics) != len(perLayerMetrics) {
			t.Errorf("%s: %d per-layer metrics reported, want %d", name, len(line.Metrics), len(perLayerMetrics))
		}
		for _, m := range []string{"sched.choose_us", "htm.evaluate_all_us", "fluid.project_ns", "trace.overhead_ratio"} {
			if !(line.Metrics[m].Value > 0) {
				t.Errorf("%s: %s = %v", name, m, line.Metrics[m].Value)
			}
		}
		if r.Budget == nil || r.Budget.Decisions == 0 || !(r.Budget.SumUS > 0) {
			t.Errorf("%s: empty budget %+v", name, r.Budget)
		}
		if _, err := os.Stat(r.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", name, err)
		}
		// Fan-out mode must have held on the wire: four Evaluates and one
		// Commit per decision, plus the occasional summary.
		if got := r.Metrics["live.rpcs_per_decision"].Value; wl.Shape == "fed-wire" && (got < 5 || got > 5.5) {
			t.Errorf("live.rpcs_per_decision = %v, want 5 and a little", got)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.9: 4.6} {
		if got := percentile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestSubWindowMetrics(t *testing.T) {
	// Twenty one-second sub-windows of ten calls each; sub-window k's calls
	// take 100+k us and it burns (2k+1) ms of CPU, except that the third
	// holds twenty calls.
	w := window{perSample: 1, recs: []*sampleRec{newSampleRec()}, wallNS: 20e9}
	for k := 0; k <= 20; k++ {
		w.boundNS = append(w.boundNS, int64(k)*1e9)
		w.boundCPU = append(w.boundCPU, int64(k)*int64(k)*1e6)
	}
	for k := 0; k < 20; k++ {
		calls := 10
		if k == 3 {
			calls = 20
		}
		for i := 0; i < calls; i++ {
			w.recs[0].add(int64(k)*1e9+int64(i)*1e7, int64(100+k)*1e3)
		}
	}
	e := w.endToEnd()
	if e.Samples != 210 || e.Decisions != 210 || len(e.SubPerS) != 20 || e.SubSamples[3] != 20 {
		t.Fatalf("window: %+v", e)
	}
	// Over all 210 calls: 10.5 a second, the median in the tenth
	// sub-window, the 99th percentile in the slowest, 400 ms of CPU.
	if e.WholePerS != 10.5 || e.WholeP50US != 109 || e.WholeP99US != 119 || math.Abs(e.WholeCPUUS-400e3/210) > 1e-9 {
		t.Errorf("whole window: rate %v p50 %v p99 %v cpu %v", e.WholePerS, e.WholeP50US, e.WholeP99US, e.WholeCPUUS)
	}
	// Reported: the busiest sub-window's rate, the first one's times and
	// CPU (1 ms for ten decisions).
	if e.DecisionsPerS != 20 || e.P50US != 100 || e.P99US != 100 || e.CPUUS != 100 {
		t.Errorf("best sub-window: rate %v p50 %v p99 %v cpu %v", e.DecisionsPerS, e.P50US, e.P99US, e.CPUUS)
	}
	if e.SubP50US[3] != 103 || e.SubCPUUS[3] != 350 {
		t.Errorf("sub-window 3: p50 %v cpu %v", e.SubP50US[3], e.SubCPUUS[3])
	}
}

func TestSelfTimeAndBlockingPath(t *testing.T) {
	// A cluster.submit of 100 ns with two overlapping shard spans (10-40
	// and 30-60: they cover 50) and a later one (70-80); the second shard
	// span holds an evaluator span of 20.
	spans := []span{
		{Name: spClusterSubmit, Parent: -1, Start: 0, End: 100},
		{Name: spSchedChoose, Parent: 0, Start: 10, End: 40},
		{Name: spSchedChoose, Parent: 0, Start: 30, End: 60},
		{Name: spSchedChoose, Parent: 0, Start: 70, End: 80},
		{Name: spHTMEvaluateAll, Parent: 2, Start: 35, End: 55},
		{Name: spSchedChoose, Parent: 0, Start: 90, End: -1}, // never closed: ignored
	}
	self := selfTimes(spans)
	if want := []int64{40, 30, 10, 10, 20}; !reflect.DeepEqual(self[:5], want) {
		t.Errorf("self times %v, want %v", self[:5], want)
	}
	// Blocking path: of the overlapping pair only the later-ending one
	// blocks (30, of which 20 in the evaluator), then the 10; the root
	// keeps the rest.
	b := computeBudget(spans, spClusterSubmit)
	want := map[string]float64{"cluster": 0.060, "sched": 0.020, "htm": 0.020}
	if b.Decisions != 1 || len(b.LayerUS) != len(want) {
		t.Fatalf("budget %+v", b)
	}
	for layer, us := range want {
		if math.Abs(b.LayerUS[layer]-us) > 1e-12 {
			t.Errorf("layer %s = %v us, want %v", layer, b.LayerUS[layer], us)
		}
	}
	if math.Abs(b.SumUS-0.100) > 1e-12 {
		t.Errorf("budget sums to %v us, want the root's 0.1", b.SumUS)
	}
}

func TestStreamReproducible(t *testing.T) {
	draw := func(seed uint64) []agent.Request {
		s := newStream(seed, 128, 16, true)
		reqs := make([]agent.Request, 64)
		for i := 0; i < len(reqs); i += 16 {
			s.nextBurst(reqs[i : i+16])
		}
		return reqs
	}
	a, b, c := draw(3), draw(3), draw(4)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different requests")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same requests")
	}
	if a[0].Arrival != a[15].Arrival || a[15].Arrival >= a[16].Arrival {
		t.Errorf("burst dates: %v %v %v", a[0].Arrival, a[15].Arrival, a[16].Arrival)
	}
}

// bareMember has the Member methods and nothing else.
type bareMember struct{ fed.Member }

func TestTracedMemberForwardsCapabilities(t *testing.T) {
	core, err := agent.New(agent.Config{Scheduler: sched.NewHMCT(), Relay: true})
	if err != nil {
		t.Fatal(err)
	}
	core.AddServer("sv00")
	tr := newTracer(16)
	full := &tracedMember{Member: fed.NewInProcess("m0", core), tr: tr}
	if _, ok, err := full.RelaySince(0); !ok || err != nil {
		t.Errorf("relay not forwarded: ok=%v err=%v", ok, err)
	}
	if servers, ok, err := full.Partition(); !ok || err != nil || len(servers) != 1 {
		t.Errorf("partition not forwarded: %v ok=%v err=%v", servers, ok, err)
	}
	bare := &tracedMember{Member: bareMember{fed.NewInProcess("m1", core)}, tr: tr}
	if _, ok, _ := bare.RelaySince(0); ok {
		t.Error("relay capability invented for a member without it")
	}
	if _, ok, _ := bare.Partition(); ok {
		t.Error("partition capability invented for a member without it")
	}
	// The dispatcher finds the capabilities by type assertion.
	var m fed.Member = full
	if _, ok := m.(interface {
		Partition() ([]string, bool, error)
	}); !ok {
		t.Error("wrapper hides Partition from the dispatcher")
	}
}

func TestTracedSchedulerStillUsesHTM(t *testing.T) {
	for _, h := range []string{"HMCT", "MSF"} {
		s, err := newScheduler(h, newTracer(16), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !sched.UsesHTM(s) || s.Name() != h {
			t.Errorf("%s wrapper: UsesHTM=%v name=%s", h, sched.UsesHTM(s), s.Name())
		}
		if _, ok := s.(sched.ScoredScheduler); !ok {
			t.Errorf("%s wrapper is not scored: the cluster would rotate instead of fanning out", h)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, in step
// with the lists the command reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.Name || doc.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: %+v, command has %s: %s", i, doc.Workloads[i], wl.Name, wl.Why)
		}
		if len(wl.Why) > 200 {
			t.Errorf("%s: why is %d characters", wl.Name, len(wl.Why))
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the command", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v, command has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound %v, command has %v", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics, true)
	same("per_layer", doc.PerLayer, perLayerMetrics, false)
	if doc.RunSeconds != defaultSeconds || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
