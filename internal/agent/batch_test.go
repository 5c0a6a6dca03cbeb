package agent

import (
	"errors"
	"strings"
	"testing"

	"casched/internal/sched"
	"casched/internal/task"
)

// TestSubmitBatchMatchedSpreadsContendedBurst pins the tentpole
// end-to-end: under matched assignment a simultaneous burst spreads
// one task per server per wave, while the default greedy core piles
// onto the globally best server exactly like sequential Submit.
func TestSubmitBatchMatchedSpreadsContendedBurst(t *testing.T) {
	// Compute 10 on s1, 25 on s2: greedy HMCT places both tasks on s1
	// (10, then 20 shared < 25 idle); the matched wave uses both.
	spec := twoServerSpec(10, 25)
	reqs := []Request{
		{JobID: 0, TaskID: 0, Spec: spec, Arrival: 0},
		{JobID: 1, TaskID: 1, Spec: spec, Arrival: 0},
	}

	greedy := newCore(t, sched.NewHMCT(), "s1", "s2")
	gdecs, err := greedy.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if gdecs[0].Server != "s1" || gdecs[1].Server != "s1" {
		t.Fatalf("greedy decisions = %v/%v, want both on s1", gdecs[0].Server, gdecs[1].Server)
	}

	matched, err := New(Config{Scheduler: sched.NewHMCT(), Seed: 1, BatchAssignment: true})
	if err != nil {
		t.Fatal(err)
	}
	matched.AddServer("s1")
	matched.AddServer("s2")
	mdecs, err := matched.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	servers := map[string]bool{mdecs[0].Server: true, mdecs[1].Server: true}
	if !servers["s1"] || !servers["s2"] {
		t.Errorf("matched decisions = %v/%v, want one per server", mdecs[0].Server, mdecs[1].Server)
	}
	for i, d := range mdecs {
		if !d.HasPrediction {
			t.Errorf("matched decision %d has no prediction", i)
		}
		if p, ok := matched.Prediction(reqs[i].JobID); !ok || p != d.Predicted {
			t.Errorf("prediction bookkeeping for job %d: %v %v vs %v", reqs[i].JobID, p, ok, d.Predicted)
		}
	}
}

// TestSubmitBatchMatchedOverflowRounds drives k > servers: the batch
// must drain over several re-projected waves, every task placed.
func TestSubmitBatchMatchedOverflowRounds(t *testing.T) {
	matched, err := New(Config{Scheduler: sched.NewMSF(), Seed: 1, BatchAssignment: true})
	if err != nil {
		t.Fatal(err)
	}
	matched.AddServer("s1")
	matched.AddServer("s2")
	spec := twoServerSpec(10, 12)
	reqs := make([]Request, 7)
	for i := range reqs {
		reqs[i] = Request{JobID: i, TaskID: i, Spec: spec, Arrival: 0}
	}
	decs, err := matched.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	perServer := map[string]int{}
	for i, d := range decs {
		if d.Server == "" {
			t.Fatalf("task %d not placed: %+v", i, d)
		}
		perServer[d.Server]++
	}
	if perServer["s1"]+perServer["s2"] != 7 || perServer["s1"] == 0 || perServer["s2"] == 0 {
		t.Errorf("placements = %v", perServer)
	}
	if matched.InFlight() != 7 {
		t.Errorf("in-flight = %d, want 7", matched.InFlight())
	}
}

// TestSubmitBatchMatchedMixedErrors: unschedulable and nil-spec batch
// members fail individually with joined errors while the rest commit,
// exactly like the greedy path's contract.
func TestSubmitBatchMatchedMixedErrors(t *testing.T) {
	matched, err := New(Config{Scheduler: sched.NewHMCT(), Seed: 1, BatchAssignment: true})
	if err != nil {
		t.Fatal(err)
	}
	matched.AddServer("s1")
	matched.AddServer("s2")
	bad := &task.Spec{Problem: "q", CostOn: map[string]task.Cost{"elsewhere": {Compute: 1}}}
	reqs := []Request{
		{JobID: 0, TaskID: 0, Spec: twoServerSpec(5, 9), Arrival: 0},
		{JobID: 1, TaskID: 1, Spec: bad, Arrival: 0},
		{JobID: 2, TaskID: 2, Spec: nil, Arrival: 0},
	}
	decs, err := matched.SubmitBatch(reqs)
	if !errors.Is(err, ErrUnschedulable) {
		t.Errorf("err = %v, want wrapped ErrUnschedulable", err)
	}
	if err == nil || !strings.Contains(err.Error(), "no spec") {
		t.Errorf("err = %v, want a no-spec failure too", err)
	}
	if decs[0].Server == "" || decs[1].Server != "" || decs[2].Server != "" {
		t.Errorf("decisions = %+v", decs)
	}
}

// TestBatchAssignmentNeedsScoredHeuristic: opting in with a heuristic
// that has no comparable objective is a construction-time error.
func TestBatchAssignmentNeedsScoredHeuristic(t *testing.T) {
	_, err := New(Config{Scheduler: sched.NewRoundRobin(), BatchAssignment: true})
	if err == nil {
		t.Fatal("RoundRobin with batch assignment accepted")
	}
	if _, err := New(Config{Scheduler: sched.NewMCT(), BatchAssignment: true}); err != nil {
		t.Errorf("MCT (scored, monitor-based) rejected: %v", err)
	}
}

// TestSubmitBatchDefaultStaysSequential re-pins the untouched default:
// without BatchAssignment, batch decisions are bit-identical to
// sequential Submit even for bursts that matched assignment would
// spread differently.
func TestSubmitBatchDefaultStaysSequential(t *testing.T) {
	spec := twoServerSpec(10, 25)
	mk := func() []Request {
		return []Request{
			{JobID: 0, TaskID: 0, Spec: spec, Arrival: 0},
			{JobID: 1, TaskID: 1, Spec: spec, Arrival: 0},
		}
	}
	seq := newCore(t, sched.NewHMCT(), "s1", "s2")
	var want []string
	for _, r := range mk() {
		d, err := seq.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d.Server)
	}
	batch := newCore(t, sched.NewHMCT(), "s1", "s2")
	decs, err := batch.SubmitBatch(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decs {
		if d.Server != want[i] {
			t.Errorf("batch decision %d = %q, sequential = %q", i, d.Server, want[i])
		}
	}
}
