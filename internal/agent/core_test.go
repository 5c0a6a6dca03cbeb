package agent

import (
	"errors"
	"math"
	"testing"

	"casched/internal/sched"
	"casched/internal/task"
	"casched/internal/trace"
)

// twoServerSpec builds a spec solvable on s1 and s2 with the given
// compute costs.
func twoServerSpec(c1, c2 float64) *task.Spec {
	return &task.Spec{
		Problem: "p",
		CostOn: map[string]task.Cost{
			"s1": {Compute: c1},
			"s2": {Compute: c2},
		},
	}
}

func newCore(t *testing.T, s sched.Scheduler, servers ...string) *Core {
	t.Helper()
	c, err := New(Config{Scheduler: s, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range servers {
		c.AddServer(name)
	}
	return c
}

func TestNewRequiresScheduler(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("core without scheduler accepted")
	}
}

func TestBeliefCorrections(t *testing.T) {
	c := newCore(t, sched.NewMCT(), "s1", "s2")
	spec := twoServerSpec(10, 100)

	// Fresh beliefs estimate zero load.
	if got := c.LoadEstimate("s1"); got != 0 {
		t.Errorf("initial estimate = %v", got)
	}
	// An assignment increments the belief before the next report.
	if _, err := c.Submit(Request{JobID: 0, TaskID: 0, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if got := c.LoadEstimate("s1"); got != 1 {
		t.Errorf("estimate after assignment = %v, want 1", got)
	}
	// The completion message decrements it.
	c.Complete(0, "s1", 10)
	if got := c.LoadEstimate("s1"); got != 0 {
		t.Errorf("estimate after completion = %v, want 0", got)
	}
	// A report replaces the belief and resets both corrections; the
	// estimate never goes negative even if completions outrun it.
	c.Report("s1", 2, 30)
	c.Complete(99, "s1", 31)
	c.Complete(98, "s1", 32)
	c.Complete(97, "s1", 33)
	if got := c.LoadEstimate("s1"); got != 0 {
		t.Errorf("estimate = %v, want clamped 0 (2-3)", got)
	}
	if got := c.LoadEstimate("nosuch"); got != 0 {
		t.Errorf("unknown server estimate = %v", got)
	}
}

func TestSubmitUnschedulable(t *testing.T) {
	c := newCore(t, sched.NewMCT(), "other")
	_, err := c.Submit(Request{JobID: 1, Spec: twoServerSpec(1, 1)})
	if !errors.Is(err, ErrUnschedulable) {
		t.Errorf("err = %v, want ErrUnschedulable", err)
	}
}

func TestMembershipLifecycle(t *testing.T) {
	c := newCore(t, sched.NewHMCT(), "s2", "s1")
	if got := c.Servers(); len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Errorf("servers = %v", got)
	}
	c.AddServer("s1") // idempotent
	if got := c.Servers(); len(got) != 2 {
		t.Errorf("duplicate AddServer grew membership: %v", got)
	}
	// HTM traces follow membership.
	if got := c.HTM().Servers(); len(got) != 2 {
		t.Errorf("htm servers = %v", got)
	}
	c.RemoveServer("s1")
	if got := c.Servers(); len(got) != 1 || got[0] != "s2" {
		t.Errorf("servers after removal = %v", got)
	}
	if got := c.HTM().Servers(); len(got) != 1 || got[0] != "s2" {
		t.Errorf("htm servers after removal = %v", got)
	}
	// Decisions now exclude the removed server.
	dec, err := c.Submit(Request{JobID: 5, Spec: twoServerSpec(1, 100)})
	if err != nil || dec.Server != "s2" {
		t.Errorf("decision = %+v, %v; want s2", dec, err)
	}
}

func TestPredictionEvictionOnComplete(t *testing.T) {
	c := newCore(t, sched.NewHMCT(), "s1", "s2")
	spec := twoServerSpec(10, 100)
	dec, err := c.Submit(Request{JobID: 7, TaskID: 7, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.HasPrediction || math.Abs(dec.Predicted-10) > 1e-9 {
		t.Fatalf("decision = %+v, want prediction 10 on s1", dec)
	}
	if p, ok := c.Prediction(7); !ok || p != dec.Predicted {
		t.Errorf("Prediction = %v,%v", p, ok)
	}
	c.Complete(7, dec.Server, 10)
	if _, ok := c.Prediction(7); ok {
		t.Error("prediction not evicted on completion")
	}
	// The end-of-run projection remains available through the trace.
	if p, ok := c.PredictedCompletion(7); !ok || math.Abs(p-10) > 1e-9 {
		t.Errorf("PredictedCompletion = %v,%v", p, ok)
	}
	if finals := c.FinalPredictions(); len(finals) != 1 || math.Abs(finals[7]-10) > 1e-9 {
		t.Errorf("FinalPredictions = %v", finals)
	}
}

func TestMonitorHeuristicHasNoPredictions(t *testing.T) {
	c := newCore(t, sched.NewMCT(), "s1", "s2")
	dec, err := c.Submit(Request{JobID: 1, Spec: twoServerSpec(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if dec.HasPrediction {
		t.Error("MCT decision carries a prediction")
	}
	if c.HTM() != nil {
		t.Error("MCT core built an HTM")
	}
	if finals := c.FinalPredictions(); len(finals) != 0 {
		t.Errorf("FinalPredictions = %v", finals)
	}
}

// TestSubmitBatchMatchesSequential pins the batch fast path's exactness:
// the same requests through SubmitBatch and through a Submit loop on an
// identically seeded twin must commit identical placements and
// predictions, for every HTM heuristic and for MCT.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	specs := []*task.Spec{
		twoServerSpec(10, 12),
		twoServerSpec(40, 30),
		twoServerSpec(25, 25),
	}
	servers := []string{"s1", "s2"}
	for _, name := range []string{"HMCT", "MP", "MSF", "MNI", "MCT", "KPB"} {
		mkReqs := func() []Request {
			// Three simultaneous-arrival waves to exercise memo reuse,
			// with spec variety within each wave. The last wave's arrival
			// regresses (a resubmission racing a burst): the HTM clamps it
			// to the trace time, and the memo must serve only what a
			// projection there computes.
			waves := []float64{0, 30, 10}
			reqs := make([]Request, 12)
			for i := range reqs {
				reqs[i] = Request{
					JobID:   i,
					TaskID:  i,
					Spec:    specs[i%len(specs)],
					Arrival: waves[i/4],
				}
			}
			return reqs
		}

		one, _ := sched.ByName(name)
		seq := newCore(t, one, servers...)
		var want []Decision
		for _, r := range mkReqs() {
			d, err := seq.Submit(r)
			if err != nil {
				t.Fatalf("%s: sequential submit %d: %v", name, r.JobID, err)
			}
			want = append(want, d)
		}

		two, _ := sched.ByName(name)
		batched := newCore(t, two, servers...)
		got, err := batched.SubmitBatch(mkReqs())
		if err != nil {
			t.Fatalf("%s: batch: %v", name, err)
		}
		for i := range want {
			if got[i].Server != want[i].Server {
				t.Errorf("%s: job %d placed on %s (batch) vs %s (sequential)",
					name, i, got[i].Server, want[i].Server)
			}
			if math.Abs(got[i].Predicted-want[i].Predicted) > 1e-9 ||
				got[i].HasPrediction != want[i].HasPrediction {
				t.Errorf("%s: job %d prediction %v/%v vs %v/%v", name, i,
					got[i].Predicted, got[i].HasPrediction,
					want[i].Predicted, want[i].HasPrediction)
			}
		}
	}
}

func TestSubmitBatchPartialFailure(t *testing.T) {
	c := newCore(t, sched.NewHMCT(), "s1", "s2")
	good := twoServerSpec(5, 6)
	bad := &task.Spec{Problem: "q", CostOn: map[string]task.Cost{"elsewhere": {Compute: 1}}}
	decs, err := c.SubmitBatch([]Request{
		{JobID: 0, Spec: good},
		{JobID: 1, Spec: bad},
		{JobID: 2, Spec: good},
	})
	if err == nil || !errors.Is(err, ErrUnschedulable) {
		t.Errorf("batch error = %v, want wrapped ErrUnschedulable", err)
	}
	if decs[0].Server == "" || decs[2].Server == "" {
		t.Error("schedulable batch members did not commit")
	}
	if decs[1].Server != "" {
		t.Errorf("unschedulable member got a server: %+v", decs[1])
	}
}

func TestEventStream(t *testing.T) {
	var log trace.Log
	c, err := New(Config{Scheduler: sched.NewHMCT(), Seed: 1, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	cancel := c.Subscribe(func(ev Event) { events = append(events, ev) })
	c.AddServer("s1")
	c.AddServer("s2")
	spec := twoServerSpec(10, 100)
	if _, err := c.Submit(Request{JobID: 3, TaskID: 3, Spec: spec, Arrival: 1}); err != nil {
		t.Fatal(err)
	}
	c.Report("s2", 1.5, 2)
	c.Complete(3, "s1", 11)
	c.RemoveServer("s2")

	wantKinds := []EventKind{EventServerAdded, EventServerAdded, EventDecision,
		EventReport, EventCompletion, EventServerRemoved}
	if len(events) != len(wantKinds) {
		t.Fatalf("events = %d, want %d: %+v", len(events), len(wantKinds), events)
	}
	for i, k := range wantKinds {
		if events[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, events[i].Kind, k)
		}
	}
	if ev := events[2]; ev.Server != "s1" || ev.JobID != 3 || !ev.HasPrediction {
		t.Errorf("decision event = %+v", ev)
	}
	if ev := events[3]; ev.Load != 1.5 || ev.Time != 2 {
		t.Errorf("report event = %+v", ev)
	}

	// After cancel, no more deliveries.
	cancel()
	before := len(events)
	c.Report("s1", 0, 3)
	if len(events) != before {
		t.Error("cancelled subscriber still receiving")
	}

	// The trace log captured the schedule and done records.
	if n := len(log.Filter("schedule")); n != 1 {
		t.Errorf("schedule records = %d", n)
	}
	if n := len(log.Filter("done")); n != 1 {
		t.Errorf("done records = %d", n)
	}
}

// TestResubmissionBookkeeping: distinct attempts of the same task are
// distinct jobs, and completions resolve to the task/attempt pair.
func TestResubmissionBookkeeping(t *testing.T) {
	c := newCore(t, sched.NewHMCT(), "s1", "s2")
	spec := twoServerSpec(10, 11)
	if _, err := c.Submit(Request{JobID: 4, TaskID: 4, Attempt: 0, Spec: spec, Arrival: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(Request{JobID: 1_000_004, TaskID: 4, Attempt: 1, Spec: spec, Arrival: 5}); err != nil {
		t.Fatal(err)
	}
	done := c.Complete(1_000_004, "s1", 20)
	if done.TaskID != 4 || done.Attempt != 1 {
		t.Errorf("completion = %+v, want task 4 attempt 1", done)
	}
	// Unknown jobs fall back to the job id.
	unknown := c.Complete(77, "s2", 21)
	if unknown.TaskID != 77 || unknown.Attempt != 0 {
		t.Errorf("unknown completion = %+v", unknown)
	}
}

// TestSubmitBatchPrunes: single decisions and batches of a heuristic
// with a declared objective go through the HTM's pruning view, and a
// burst's later members are served from the memo wherever the previous
// placements left a candidate's trace unchanged.
func TestSubmitBatchPrunes(t *testing.T) {
	servers := []string{"s1", "s2", "s3", "s4", "s5", "s6"}
	costs := make(map[string]task.Cost, len(servers))
	for i, s := range servers {
		costs[s] = task.Cost{Input: 1, Compute: 50 + float64(i), Output: 1}
	}
	spec := &task.Spec{Problem: "p", CostOn: costs}
	c := newCore(t, sched.NewHMCT(), servers...)
	for i := 0; i < 5; i++ {
		if _, err := c.Submit(Request{JobID: i, TaskID: i, Spec: spec, Arrival: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Five servers are busy for ~50 s; the sixth decision only needs the
	// idle one and whatever its bound cannot rule out.
	before := c.EvalStats()
	d, err := c.Submit(Request{JobID: 5, TaskID: 5, Spec: spec, Arrival: 5})
	if err != nil {
		t.Fatal(err)
	}
	after := c.EvalStats()
	if d.Server != "s6" {
		t.Errorf("placed on %s, want the idle s6", d.Server)
	}
	if got := after.Candidates - before.Candidates; got != 6 {
		t.Errorf("%d candidates counted, want 6", got)
	}
	if got := after.Projections - before.Projections; got != 1 {
		t.Errorf("%d projections, want 1 (the idle server)", got)
	}
	// A burst of eight onto the busy pool: each member after the first
	// finds the traces the placements before it left unchanged in the memo.
	burst := make([]Request, 8)
	for i := range burst {
		burst[i] = Request{JobID: 6 + i, TaskID: 6 + i, Spec: spec, Arrival: 6}
	}
	before = after
	if _, err := c.SubmitBatch(burst); err != nil {
		t.Fatal(err)
	}
	after = c.EvalStats()
	offered, projected, reused := after.Candidates-before.Candidates, after.Projections-before.Projections, after.Reused-before.Reused
	if offered != 6*uint64(len(burst)) || projected+reused >= offered {
		t.Errorf("the burst was offered %d candidates, projected %d and reused %d: want fewer than offered", offered, projected, reused)
	}
	t.Logf("burst: %d offered, %d projected, %d reused", offered, projected, reused)
	if reused == 0 {
		t.Errorf("the burst's later members reused no prediction (projected %d of %d)", projected, offered)
	}
}
