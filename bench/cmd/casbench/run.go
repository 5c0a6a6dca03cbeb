package main

import (
	"fmt"
	"time"

	"casched"
	"casched/internal/agent"
	"casched/internal/stats"
	"casched/internal/task"
)

// runOpts are the knobs of one run. The command sets seed and seconds;
// the smoke tests also shrink the counts.
type runOpts struct {
	seed    uint64
	seconds float64
	// limit, when positive, ends every window after that many timed
	// calls per caller instead of after its share of seconds.
	limit int64
	// warmup overrides the workload's warm-up decision count (0 keeps it).
	warmup int
	outDir string
}

const (
	// openLoopRate is the open-loop pass's arrival rate, requests per
	// second: about a third of what the closed loop sustains.
	openLoopRate = 1000
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is the outcome of one correctness check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is the JSON document of one run.
type result struct {
	Workload   workload  `json:"workload"`
	Why        string    `json:"why"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	Started    string    `json:"started"`
	Env        envRecord `json:"env"`
	SetupS     []float64 `json:"setup_samples_s"`
	Attempted  int64     `json:"attempted"`
	Failed     int64     `json:"failed"`
	Correct    bool      `json:"correct"`
	Checks     []check   `json:"checks"`
	Window     *endToEnd `json:"window,omitempty"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	Unstable   bool      `json:"unstable,omitempty"`
	LiveJobs   []float64 `json:"htm_live_jobs_per_server_start_end,omitempty"`
	OfferedUtl float64   `json:"offered_utilisation,omitempty"`
	Budget     *budget   `json:"budget,omitempty"`
	// UntracedP50 is the median the budget's sum is compared against: the
	// traced run's own untraced pass.
	UntracedP50 float64   `json:"untraced_p50_us,omitempty"`
	OpenLoop    *openLoop `json:"open_loop,omitempty"`
	TraceFile   string    `json:"trace_file,omitempty"`
	DroppedSp   int64     `json:"dropped_spans,omitempty"`

	Metrics map[string]metric `json:"metrics"`
}

func (r *result) addCheck(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
		r.Correct = false
	}
	r.Checks = append(r.Checks, c)
}

func newResult(wl workload, o runOpts, traced bool) *result {
	return &result{Workload: wl, Why: wl.Why, Seed: o.seed, Seconds: o.seconds, Traced: traced,
		Started: time.Now().UTC().Format(time.RFC3339), Env: readEnv(), Correct: true,
		Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: metricUnit(name)}
}

func secondsOf(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (o runOpts) warmupFor(wl workload) int {
	if o.warmup > 0 {
		return o.warmup
	}
	return wl.Warmup
}

// run measures one workload: end to end (traced false) or layer by
// layer (traced true).
func run(wl workload, o runOpts, traced bool) (*result, error) {
	switch {
	case wl.Shape == "fed-wire" && traced:
		return traceFed(wl, o)
	case wl.Shape == "fed-wire":
		return measureFed(wl, o)
	case traced:
		return traceInproc(wl, o)
	}
	return measureInproc(wl, o)
}

// extraSetups is how many more times a run sets its deployment up
// after the one it measured, so that setup_s is the median of three
// samples. The first of them doubles as the replay check's deployment.
const extraSetups = 2

// replayDecisions is how many of a deployment's first decisions the
// replay check compares.
const replayDecisions = 5000

// setupInproc builds the deployment, registers its servers and runs the
// warm-up decisions, timing the lot as one set-up sample. The driver
// keeps its first replayDecisions placements for the replay check.
func setupInproc(wl workload, o runOpts, tr *tracer, r *result) (*driver, error) {
	t0 := time.Now()
	d, err := buildInproc(wl, tr)
	if err != nil {
		return nil, err
	}
	dr := newDriver(d, o.seed, tr)
	if err := dr.warm(o.warmupFor(wl)); err != nil {
		d.close()
		return nil, err
	}
	r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	return dr, nil
}

// replay continues a freshly set-up driver until it has placed as many
// decisions as want holds and compares the two placement sequences.
func (dr *driver) replay(want []string) error {
	for len(dr.placed) < len(want) {
		if _, failed := dr.step(); failed > 0 {
			return fmt.Errorf("replay: decision %d failed", len(dr.placed))
		}
	}
	return samePlacements(want, dr.placed[:len(want)])
}

// setEndToEnd stores the gated metrics of an untraced window.
func (r *result) setEndToEnd(e endToEnd) {
	r.Window = &e
	r.set("decisions_per_s", e.DecisionsPerS)
	r.set("decision_p50_us", e.P50US)
	r.set("decision_p99_us", e.P99US)
	r.set("cpu_us_per_decision", e.CPUUS)
	r.set("allocs_per_decision_plus_10", e.AllocsPerDec+allocsOffset)
	r.set("bytes_per_decision_plus_1280", e.BytesPerDec+bytesOffset)
}

func (r *result) checkCounts(w *window, e endToEnd) {
	r.Attempted, r.Failed = w.attempted, w.failed
	var err error
	if got, want := e.Decisions+e.DroppedSamples*int64(w.perSample), w.attempted-w.failed; got != want {
		err = fmt.Errorf("%d decisions answered, %d attempted and %d failed", got, w.attempted, w.failed)
	}
	r.addCheck("every job id answered exactly once by a registered server that solves the task", err)
	if w.failed > 0 {
		r.Correct = false
	}
}

func measureInproc(wl workload, o runOpts) (*result, error) {
	r := newResult(wl, o, false)
	dr, err := setupInproc(wl, o, nil, r)
	if err != nil {
		return nil, err
	}
	w := runWindow(secondsOf(o.seconds), o.limit, wl.Burst, []caller{dr.caller()})
	e := w.endToEnd()
	r.setEndToEnd(e)
	r.checkCounts(&w, e)
	first := dr.placed // before the decision checks place any more
	r.addCheck(fmt.Sprintf("%d sampled arrivals: winner unbeaten in an independent EvaluateAll, Evaluate equals EvaluateFull", checkSamples),
		checkDecisions(dr))
	r.PeakRSSMB = peakRSSMB()
	dr.d.close()
	for i := 0; i < extraSetups; i++ {
		again, err := setupInproc(wl, o, nil, r)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			r.addCheck(fmt.Sprintf("replay: a fresh deployment places the first %d decisions identically", len(first)),
				again.replay(first))
		}
		again.d.close()
	}
	r.set("setup_s", stats.Quantile(r.SetupS, 0.5))
	return r, nil
}

// meanServiceS is the mean unloaded duration of the workload's tasks on
// the server a min-completion heuristic would pick when all are idle.
func meanServiceS(servers int) float64 {
	sum := 0.0
	for f := 0; f < 3; f++ {
		best, _ := task.Synthetic(f, servers).MinTotal()
		sum += best
	}
	return sum / 3
}

func measureFed(wl workload, o runOpts) (*result, error) {
	r := newResult(wl, o, false)
	rig, err := setupFed(wl, o, r)
	if err != nil {
		return nil, err
	}
	liveStart, _ := occupancy(rig.dep.cores())
	w := runWindow(secondsOf(o.seconds), o.limit, 1, rig.callerFuncs())
	liveEnd, _ := occupancy(rig.dep.cores())
	e := w.endToEnd()
	r.setEndToEnd(e)
	r.checkCounts(&w, e)
	r.addCheck("dispatcher in-flight count equals scheduled minus completed", rig.checkInFlight())
	// Arrival dates are stamped from the wall clock, so the offered load
	// follows the measured rate. The run is flagged, not failed, when
	// that load nears saturation or the traces' backlog grew through the
	// window: the figures then describe a deployment that was filling up.
	r.LiveJobs = []float64{liveStart, liveEnd}
	r.OfferedUtl = e.WholePerS * meanServiceS(wl.Servers) / (wl.ClockScale * float64(wl.Servers))
	r.Unstable = r.OfferedUtl >= 0.9 || liveEnd > 2*liveStart+1
	r.PeakRSSMB = peakRSSMB()
	rig.close()
	// No replay here: the dates come from the wall clock and two clients
	// race, so two runs of this workload need not place alike.
	for i := 0; i < extraSetups; i++ {
		again, err := setupFed(wl, o, r)
		if err != nil {
			return nil, err
		}
		again.close()
	}
	r.set("setup_s", stats.Quantile(r.SetupS, 0.5))
	return r, nil
}

// setupFed builds the full federation with its clients and runs the
// warm-up decisions, timing the lot as one set-up sample.
func setupFed(wl workload, o runOpts, r *result) (*fedRig, error) {
	t0 := time.Now()
	rig, err := buildFedRig(wl, o.seed, nil, true, o.warmupFor(wl))
	if err != nil {
		return nil, err
	}
	r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	return rig, nil
}

// tracedCalls bounds a traced window so that its spans fit the buffer.
func tracedCalls(wl workload, capacity int) int64 {
	perCall := 4 // root, choose, evaluate-all, complete
	switch wl.Shape {
	case "cluster":
		perCall = 2 + 2*wl.Shards
	case "cluster-batch":
		perCall = 1 + 3*wl.Burst
	case "fed-wire":
		perCall = 2 + 3*wl.Members
	}
	// A tenth is kept back for the spans the estimate leaves out
	// (summaries, the last calls' completions).
	return int64(capacity * 9 / 10 / perCall / wl.Callers)
}

// spanCapacity is the traced pass's span buffer: 10 MB of memory, and a
// trace file of some 25 MB.
const spanCapacity = 250_000

// limitFor combines the run's own call limit with the span budget.
func limitFor(o runOpts, wl workload) int64 {
	l := tracedCalls(wl, spanCapacity)
	if o.limit > 0 && o.limit < l {
		l = o.limit
	}
	return l
}

// setProc stores the process-level figures of an untraced window.
func (r *result) setProc(e endToEnd) {
	r.set("proc.allocs_per_decision", e.AllocsPerDec)
	r.set("proc.bytes_per_decision", e.BytesPerDec)
	r.set("proc.gc_pause_total_ms", e.GCPauseMS)
	r.set("proc.heap_live_mb", e.HeapLiveMB)
	r.set("client.p999_us", e.P999US)
	r.set("client.max_us", e.MaxUS)
}

func (r *result) setProbes(p layerProbes) {
	r.set("fluid.clone_ns", p.FluidCloneNS)
	r.set("fluid.run_to_idle_ns", p.FluidRunToIdleNS)
	r.set("fluid.project_ns", p.FluidProjectNS)
	r.set("fluid.events_per_projection", p.FluidEventsPerPrj)
	r.set("htm.place_us", p.HTMPlaceUS)
	r.set("htm.live_jobs_per_server", p.HTMLiveJobsPerSrv)
	r.set("htm.trace_jobs_total", p.HTMTraceJobsTotal)
	r.set("agent.evaluate_us", p.AgentEvaluateUS)
	r.set("agent.commit_us", p.AgentCommitUS)
	r.set("fair.pick_ns", p.FairPickNS)
	r.set("fair.charge_ns", p.FairChargeNS)
	r.set("fair.take_ns", p.FairTakeNS)
}

// runProbes measures the layers that can be called directly, on the
// cores as a traced pass left them.
func runProbes(cores []*agent.Core, servers int, at float64) layerProbes {
	var p layerProbes
	spec := task.Synthetic(1, servers)
	p.HTMLiveJobsPerSrv, p.HTMTraceJobsTotal = occupancy(cores)
	probeFluid(cores, spec, &p)
	probeFair(&p)
	probeAgent(cores, spec, at, &p)
	return p
}

// setSpanMetrics derives the span-based layer metrics shared by every
// workload: the scheduler and evaluator wrappers' figures.
func (r *result) setSpanMetrics(spans []span, decisions int) {
	self := selfTimes(spans)
	var chooseSelf []float64
	var preds float64
	for i, s := range spans {
		switch {
		case s.End < 0:
		case s.Name == spSchedChoose:
			chooseSelf = append(chooseSelf, float64(self[i])/1e3)
		case s.Name == spHTMEvaluateAll:
			preds += float64(s.N)
		}
	}
	r.set("sched.choose_us", percentile(spanDurations(spans, spSchedChoose), 0.5))
	r.set("sched.score_us", percentile(chooseSelf, 0.5))
	r.set("htm.evaluate_all_us", percentile(spanDurations(spans, spHTMEvaluateAll), 0.5))
	if decisions > 0 {
		r.set("htm.predictions_per_decision", preds/float64(decisions))
	}
	r.set("agent.complete_us", percentile(spanDurations(spans, spAgentComplete), 0.5))
}

// finishTrace computes the budget, writes the trace file and the
// remaining shared metrics.
func (r *result) finishTrace(tr *tracer, o runOpts, untracedP50, tracedP50 float64, roots ...spanName) {
	spans := tr.recorded()
	b := computeBudget(spans, roots...)
	r.Budget = &b
	r.DroppedSp = tr.dropped.Load()
	r.setSpanMetrics(spans, b.Decisions)
	// The evaluator's time is the projections plus its own bookkeeping;
	// the split uses the directly measured cost of one projection. Means,
	// not medians: in a burst the first call projects a whole partition
	// and the rest one server each.
	if evals := spanDurations(spans, spHTMEvaluateAll); len(evals) > 0 {
		perCall := r.Metrics["htm.predictions_per_decision"].Value * float64(b.Decisions) / float64(len(evals))
		r.set("htm.self_us", stats.Mean(evals)-perCall*r.Metrics["fluid.project_ns"].Value/1e3)
	}
	r.UntracedP50 = untracedP50
	if untracedP50 > 0 {
		r.set("trace.overhead_ratio", tracedP50/untracedP50)
		r.set("trace.budget_vs_p50", b.SumUS/untracedP50)
	}
	r.set("trace.budget_sum_us", b.SumUS)
	for _, layer := range []string{"agent", "sched", "htm", "cluster", "fed", "live"} {
		r.set("budget."+layer+"_us", b.LayerUS[layer])
	}
	r.set("proc.peak_rss_mb", peakRSSMB())
	r.PeakRSSMB = r.Metrics["proc.peak_rss_mb"].Value
	if o.outDir != "" {
		r.TraceFile = fmt.Sprintf("%s/trace-%s.json", o.outDir, r.Workload.Name)
		if err := writeTrace(r.TraceFile, spans); err != nil {
			r.addCheck("trace file written", err)
		}
	}
}

// Shares of a traced run's seconds given to its passes.
const (
	untracedShare = 0.3
	tracedShare   = 0.5
)

func traceInproc(wl workload, o runOpts) (*result, error) {
	r := newResult(wl, o, true)
	// Pass 1: a plain deployment, for the untraced median the traced one
	// is compared against, and the process-level figures.
	plain, err := setupInproc(wl, o, nil, r)
	if err != nil {
		return nil, err
	}
	w0 := runWindow(secondsOf(o.seconds*untracedShare), o.limit, wl.Burst, []caller{plain.caller()})
	plain.d.close()
	e0 := w0.endToEnd()
	r.setProc(e0)

	// Pass 2: a fresh deployment with the wrappers in, traced once warm.
	tr := newTracer(spanCapacity)
	dr, err := setupInproc(wl, o, tr, r)
	if err != nil {
		return nil, err
	}
	defer dr.d.close()
	for i := range dr.perShard {
		dr.perShard[i] = 0
	}
	tr.on.Store(true)
	w1 := runWindow(secondsOf(o.seconds*tracedShare), limitFor(o, wl), wl.Burst, []caller{dr.caller()})
	tr.on.Store(false)
	e1 := w1.endToEnd()
	r.Attempted, r.Failed = w0.attempted+w1.attempted, w0.failed+w1.failed
	r.Correct = r.Failed == 0

	r.setProbes(runProbes(dr.d.cores, wl.Servers, dr.st.now))
	root := map[string]spanName{"core": spAgentSubmit, "cluster": spClusterSubmit, "cluster-batch": spClusterBatch}[wl.Shape]
	r.finishTrace(tr, o, e0.WholeP50US, e1.WholeP50US, root)
	rootP50 := percentile(spanDurations(tr.recorded(), root), 0.5)
	switch wl.Shape {
	case "core":
		r.set("agent.submit_us", rootP50)
		r.set("agent.self_us", r.Budget.LayerUS["agent"])
	case "cluster":
		r.set("cluster.submit_us", rootP50)
		r.set("cluster.self_us", r.Budget.LayerUS["cluster"])
	case "cluster-batch":
		r.set("cluster.batch_us_per_task", rootP50/float64(wl.Burst))
		r.set("cluster.self_us", r.Budget.LayerUS["cluster"])
	}
	if len(dr.perShard) > 1 {
		var max, sum float64
		for _, n := range dr.perShard {
			sum += float64(n)
			if float64(n) > max {
				max = float64(n)
			}
		}
		if sum > 0 {
			r.set("cluster.shard_imbalance", max*float64(len(dr.perShard))/sum)
		}
	}
	return r, nil
}

// Shares of a traced federation run's seconds given to its passes.
const (
	fedClientShare = 0.2  // closed-loop clients over TCP, untraced
	fedDirectShare = 0.15 // the same callers straight into a dispatcher, untraced
	fedTracedShare = 0.3  // the direct callers again, traced
	fedInprocShare = 0.1  // the same stream over in-process members
	fedOpenShare   = 0.25 // the open-loop pass
)

func traceFed(wl workload, o runOpts) (*result, error) {
	r := newResult(wl, o, true)
	warm := o.warmupFor(wl)
	pass := func(rig *fedRig, share float64, limit int64) endToEnd {
		w := runWindow(secondsOf(o.seconds*share), limit, 1, rig.callerFuncs())
		r.Attempted += w.attempted
		r.Failed += w.failed
		return w.endToEnd()
	}

	// Pass a: the real deployment, clients over TCP; then the open loop
	// on the same connections.
	rig, err := buildFedRig(wl, o.seed, nil, true, warm)
	if err != nil {
		return nil, err
	}
	client := pass(rig, fedClientShare, o.limit)
	r.setProc(client)
	ol, err := rig.runOpenLoop(o.seed, openLoopRate, secondsOf(o.seconds*fedOpenShare))
	rig.close()
	if err != nil {
		return nil, err
	}
	r.OpenLoop = &ol
	r.Attempted += int64(ol.Sent)
	r.Failed += int64(ol.Failed)
	r.set("client.open_p50_us", ol.P50US)
	r.set("client.open_p99_us", ol.P99US)
	r.set("client.open_late_max_us", ol.LateMaxUS)

	// Pass b: the same members behind a dispatcher the harness calls
	// directly: what is left of the client's time without its RPC hop.
	if rig, err = buildFedRig(wl, o.seed, nil, false, warm); err != nil {
		return nil, err
	}
	direct := pass(rig, fedDirectShare, o.limit)
	rig.close()
	r.set("client.rpc_hop_us", client.WholeP50US-direct.WholeP50US)

	// Pass c: pass b with span-recording member handles and heuristics.
	tr := newTracer(spanCapacity)
	if rig, err = buildFedRig(wl, o.seed, tr, false, warm); err != nil {
		return nil, err
	}
	defer rig.close()
	tr.on.Store(true)
	traced := pass(rig, fedTracedShare, limitFor(o, wl))
	tr.on.Store(false)
	r.addCheck("dispatcher in-flight count equals scheduled minus completed", rig.checkInFlight())
	spans := tr.recorded()
	r.setFedMetrics(spans)
	r.setProbes(runProbes(rig.dep.cores(), wl.Servers, rig.dep.clock.Now()))

	// Pass d: the stream over in-process members, no wire at all.
	inproc, err := fedInprocSubmitUS(wl, o, secondsOf(o.seconds*fedInprocShare))
	if err != nil {
		return nil, err
	}
	r.set("fed.inproc_submit_us", inproc)

	if r.Failed > 0 {
		r.Correct = false
	}
	r.finishTrace(tr, o, direct.WholeP50US, traced.WholeP50US, spFedSubmit)
	return r, nil
}

// setFedMetrics derives the dispatcher and wire metrics from the traced
// direct pass.
func (r *result) setFedMetrics(spans []span) {
	children := childIndex(spans)
	self := selfTimes(spans)
	var wait, skew, fedSelf, overhead []float64
	decisions, rpcs := 0, 0
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		switch s.Name {
		case spLiveEvaluate, spLiveCommit, spLiveSubmit, spLiveSummary:
			rpcs++
		}
		if s.Name == spLiveEvaluate {
			// Wire overhead: the round trip minus the member-side
			// heuristic span it caused.
			for _, c := range children[i] {
				if spans[c].Name == spSchedChoose {
					overhead = append(overhead, float64((s.End-s.Start)-(spans[c].End-spans[c].Start))/1e3)
				}
			}
		}
		if s.Name != spFedSubmit {
			continue
		}
		decisions++
		fedSelf = append(fedSelf, float64(self[i])/1e3)
		var evals []int32
		for _, c := range children[i] {
			if spans[c].Name == spLiveEvaluate {
				evals = append(evals, c)
			}
		}
		if len(evals) == 0 {
			continue
		}
		lo, hi := int64(1<<62), int64(0)
		for _, c := range evals {
			d := spans[c].End - spans[c].Start
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		wait = append(wait, float64(hi)/1e3)
		skew = append(skew, float64(hi-lo)/1e3)
	}
	r.set("fed.submit_us", percentile(spanDurations(spans, spFedSubmit), 0.5))
	r.set("fed.fanout_wait_us", percentile(wait, 0.5))
	r.set("fed.fanout_skew_us", percentile(skew, 0.5))
	r.set("fed.commit_us", percentile(spanDurations(spans, spLiveCommit), 0.5))
	r.set("fed.self_us", percentile(fedSelf, 0.5))
	r.set("live.evaluate_rtt_us", percentile(spanDurations(spans, spLiveEvaluate), 0.5))
	r.set("live.commit_rtt_us", percentile(spanDurations(spans, spLiveCommit), 0.5))
	r.set("live.summary_rtt_us", percentile(spanDurations(spans, spLiveSummary), 0.5))
	r.set("live.wire_overhead_us", percentile(overhead, 0.5))
	if decisions > 0 {
		r.set("live.rpcs_per_decision", float64(rpcs)/float64(decisions))
	}
}

// fedInprocSubmitUS drives the federation dispatcher over in-process
// members with the workload's stream shape and returns the median
// Submit time: the dispatcher's cost with the wire taken away.
func fedInprocSubmitUS(wl workload, o runOpts, d time.Duration) (float64, error) {
	f, err := casched.NewFederation(
		casched.WithFedMembers(wl.Members),
		casched.WithFedHeuristic(wl.Heuristic),
		casched.WithFedSeed(deploySeed),
	)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	for _, n := range serverNames(wl.Servers) {
		if err := f.AddServer(n); err != nil {
			return 0, err
		}
	}
	clock := casched.NewLiveClock(wl.ClockScale)
	rng := stats.NewRNG(o.seed)
	ring := newRetireRing(wl.RetireLag)
	var lat []float64
	deadline := time.Now().Add(d)
	for job := 0; time.Now().Before(deadline) && (o.limit <= 0 || int64(job) < o.limit+int64(o.warmupFor(wl))); job++ {
		req := agent.Request{JobID: job, TaskID: job, Spec: task.Synthetic(rng.Intn(3), wl.Servers), Arrival: clock.Now()}
		t0 := time.Now()
		dec, err := f.Submit(req)
		el := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if job >= o.warmupFor(wl) {
			lat = append(lat, float64(el)/1e3)
		}
		if old, ok := ring.push(placed{job, dec.Server}); ok {
			if err := f.Complete(old.job, old.server, clock.Now()); err != nil {
				return 0, err
			}
		}
	}
	return percentile(lat, 0.5), nil
}
