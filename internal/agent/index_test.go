package agent

import (
	"fmt"
	"strings"
	"testing"

	"casched/internal/sched"
	"casched/internal/task"
)

// TestWarmSubmitResolvesNoNames counts, it does not time: on a warmed
// HMCT core over 1024 servers a decision resolves no candidate by name
// and allocates nothing, the candidate index is built once per spec,
// and a server joining costs one rebuild per spec, not one per decision.
func TestWarmSubmitResolvesNoNames(t *testing.T) {
	const servers, window = 1024, 256
	c, err := New(Config{Scheduler: sched.NewHMCT(), Seed: 17, HTMWorkers: 1, HTMRetention: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < servers; i++ {
		c.AddServer(fmt.Sprintf("sv%02d", i))
	}
	specs := []*task.Spec{task.Synthetic(0, servers), task.Synthetic(1, servers), task.Synthetic(2, servers)}

	// The steady loop of the benchmarks: retire the oldest in-flight job,
	// place one arrival, about a fifth of the pool busy.
	placedOn := make([]string, window)
	id, now := 0, 0.0
	step := func() {
		now += 0.55
		if id >= window {
			c.Complete(id-window, placedOn[id%window], now)
		}
		d, err := c.Submit(Request{JobID: id, TaskID: id, Spec: specs[id%len(specs)], Arrival: now})
		if err != nil {
			t.Fatal(err)
		}
		placedOn[id%window] = d.Server
		id++
	}
	for id < 6*window {
		step()
	}

	before := c.EvalStats()
	if before.IndexBuilds != uint64(len(specs)) {
		t.Errorf("%d index builds while warming up, want one per spec (%d)", before.IndexBuilds, len(specs))
	}
	allocs := testing.AllocsPerRun(300, step)
	after := c.EvalStats()
	if !raceEnabled && allocs != 0 {
		t.Errorf("%v allocations per warmed decision, want 0", allocs)
	}
	if got := after.NameLookups - before.NameLookups; got != 0 {
		t.Errorf("%d candidates resolved by name over %d warmed decisions, want 0",
			got, (after.Candidates-before.Candidates)/servers)
	}
	if after.IndexBuilds != before.IndexBuilds {
		t.Errorf("%d index builds during warmed decisions", after.IndexBuilds-before.IndexBuilds)
	}
	if after.Projections-before.Projections >= (after.Candidates-before.Candidates)/8 {
		t.Errorf("projected %d of %d candidates: not the light regime", after.Projections-before.Projections,
			after.Candidates-before.Candidates)
	}

	c.AddServer("sv-late") // the synthetic specs do not price it; the pool changed all the same
	for i := 0; i < 60; i++ {
		step()
	}
	late := c.EvalStats()
	if got := late.IndexBuilds - after.IndexBuilds; got != uint64(len(specs)) {
		t.Errorf("%d index builds after one server joined and 60 decisions, want %d", got, len(specs))
	}
	if got := late.NameLookups - after.NameLookups; got != 0 {
		t.Errorf("%d candidates resolved by name after the join", got)
	}
}

// strayScheduler answers with a fixed server whatever the candidates.
type strayScheduler struct{ server string }

func (strayScheduler) Name() string                            { return "stray" }
func (s strayScheduler) Choose(*sched.Context) (string, error) { return s.server, nil }

// TestChoiceOutsideCandidatesRejected: the core accepts a heuristic's
// answer only if it is a registered server the spec prices.
func TestChoiceOutsideCandidatesRejected(t *testing.T) {
	spec := twoServerSpec(10, 20)
	for _, stray := range []string{"s3", "elsewhere", ""} {
		c := newCore(t, strayScheduler{stray}, "s1", "s2", "s3")
		_, err := c.Submit(Request{JobID: 1, TaskID: 1, Spec: spec})
		if err == nil || !strings.Contains(err.Error(), "chose non-candidate") {
			t.Errorf("choice %q: err = %v, want the non-candidate error", stray, err)
		}
		if c.InFlight() != 0 {
			t.Errorf("choice %q: a rejected decision was committed", stray)
		}
	}
	c := newCore(t, strayScheduler{"s2"}, "s1", "s2", "s3")
	if d, err := c.Submit(Request{JobID: 1, TaskID: 1, Spec: spec}); err != nil || d.Server != "s2" {
		t.Errorf("a candidate was refused: %+v, %v", d, err)
	}
}

// TestMonitorCoreCachesCandidates: a core without an HTM resolves a
// spec's candidates once per membership, in name order, and sees joins
// and departures.
func TestMonitorCoreCachesCandidates(t *testing.T) {
	c := newCore(t, sched.NewMCT(), "s2", "s3", "s1")
	spec := twoServerSpec(10, 20)
	c.mu.Lock()
	first := c.candidatesLocked(spec)
	again := c.candidatesLocked(spec)
	c.mu.Unlock()
	if strings.Join(first, ",") != "s1,s2" {
		t.Errorf("candidates = %v, want s1 and s2 in order", first)
	}
	if &first[0] != &again[0] {
		t.Error("second lookup rebuilt the list")
	}
	c.RemoveServer("s1")
	if !c.CanSolve(spec) {
		t.Error("s2 still solves the task")
	}
	c.RemoveServer("s2")
	if c.CanSolve(spec) {
		t.Error("no registered server solves the task, CanSolve says one does")
	}
	if _, err := c.Submit(Request{JobID: 1, TaskID: 1, Spec: spec}); err == nil {
		t.Error("submit with no solver succeeded")
	}
	c.AddServer("s2")
	if d, err := c.Submit(Request{JobID: 2, TaskID: 2, Spec: spec}); err != nil || d.Server != "s2" {
		t.Errorf("after s2 rejoined: %+v, %v", d, err)
	}
	for i := 0; i < 3*maxCachedSpecs; i++ {
		cp := *spec
		if !c.CanSolve(&cp) {
			t.Fatal("fresh spec not solvable")
		}
	}
	if len(c.candCache) > maxCachedSpecs {
		t.Errorf("candidate cache holds %d specs, cap %d", len(c.candCache), maxCachedSpecs)
	}
}
