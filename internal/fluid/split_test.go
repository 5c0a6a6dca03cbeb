package fluid

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"casched/internal/stats"
	"casched/internal/task"
)

// splitCase is one generated simulation with the instants a run over it
// is split at.
type splitCase struct {
	cfg  Config
	jobs []splitJob
	// cuts are the intermediate instants, ascending; horizon is past the
	// last release.
	cuts    []float64
	horizon float64
}

type splitJob struct {
	release  float64
	cost     task.Cost
	memoryMB float64
}

// buildSplitCase decodes a byte string into a simulation. The alphabet
// makes short inputs reach what a split has to survive: zero-cost phases
// (chained transitions at one instant), releases at the same instant and
// within the time tolerance of an event, link costs as large as the
// computation, and with bit 0 of the first byte the memory model of a
// small server (128 MB of RAM, 126 of swap) under footprints that thrash
// it and collapse it. Bit 1 restricts every job to one station (the
// phase the next two bits name). Exhausted input reads as zeros.
func buildSplitCase(data []byte) splitCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	flags := next()
	c := splitCase{cfg: Config{Name: "srv"}}
	if flags&1 != 0 {
		c.cfg = Config{Name: "srv", RAMMB: 128, SwapMB: 126, Thrash: true}
	}
	station := task.Phase(-1)
	if flags&2 != 0 {
		station = task.Phase(flags >> 2 % int(task.NumPhases))
	}
	gaps := []float64{0, 0, 5e-10, 0.25, 2, 9}
	works := []float64{0, 0, 0.5, 3, 7, 20}
	footprints := []float64{0, 0, 40, 100, 200}
	now := 0.0
	for n := next() % 13; n > 0; n-- {
		a, b := next(), next()
		now += gaps[a%6]
		j := splitJob{release: now, memoryMB: footprints[b/36%5]}
		cost := [task.NumPhases]float64{works[a/6%6], works[b%6], works[b/6%6]}
		for p := range cost {
			if station >= 0 && task.Phase(p) != station {
				cost[p] = 0
			}
		}
		j.cost = task.Cost{Input: cost[0], Compute: cost[1], Output: cost[2]}
		c.jobs = append(c.jobs, j)
	}
	c.horizon = now + 1 + float64(next()%64)
	for n := next() % 9; n > 0; n-- {
		c.cuts = append(c.cuts, c.horizon*float64(next())/256)
	}
	slices.Sort(c.cuts)
	return c
}

// sim returns the case's simulation at time 0, every job added.
func (c splitCase) sim(t testing.TB) *Sim {
	t.Helper()
	s := New(c.cfg)
	for i, j := range c.jobs {
		if err := s.Add(i, j.release, j.cost, j.memoryMB); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// run advances a fresh simulation through the given instants, then to
// the horizon and on to idle, and returns it with every event emitted.
func (c splitCase) run(t testing.TB, through []float64) (*Sim, []Event) {
	s := c.sim(t)
	var events []Event
	for _, cut := range through {
		events = append(events, s.AdvanceTo(cut)...)
	}
	events = append(events, s.AdvanceTo(c.horizon)...)
	return s, append(events, s.RunToIdle(math.Inf(1))...)
}

// checkSplitCase is the split-invariance property the HTM's trace clock
// rests on, in its two strengths. Advancing through intermediate
// instants consumes the same work in more pieces, so it gives the same
// events, job by job and in the same chronological positions, at dates
// within the time tolerance per event; work conservation holds per
// station either way. Stepping through due events only
// (StepEventsQuiet) leaves no mark of the instants at all: the state is
// bit-identical however the run was cut.
func checkSplitCase(t *testing.T, c splitCase) {
	t.Helper()
	direct, want := c.run(t, nil)
	split, got := c.run(t, c.cuts)
	tol := TimeEps * float64(len(want)+1)
	if len(got) != len(want) {
		t.Fatalf("%d events split at %v, %d direct", len(got), c.cuts, len(want))
	}
	perJob := func(events []Event) map[int][]Event {
		out := make(map[int][]Event)
		for _, e := range events {
			out[e.JobID] = append(out[e.JobID], e)
		}
		return out
	}
	for i := range want {
		// Two events within the tolerance of each other may swap; their
		// dates, position by position, may not move.
		if math.Abs(got[i].Time-want[i].Time) > tol {
			t.Errorf("event %d at %.12g split, %.12g direct", i, got[i].Time, want[i].Time)
		}
		if i > 0 && got[i].Time < got[i-1].Time {
			t.Errorf("split events out of order at %d: %.12g after %.12g", i, got[i].Time, got[i-1].Time)
		}
	}
	gotJobs := perJob(got)
	for id, w := range perJob(want) {
		g := gotJobs[id]
		if len(g) != len(w) {
			t.Fatalf("job %d: %d events split, %d direct", id, len(g), len(w))
		}
		for k := range w {
			if g[k].Kind != w[k].Kind || g[k].Phase != w[k].Phase || math.Abs(g[k].Time-w[k].Time) > tol {
				t.Errorf("job %d event %d: %+v split, %+v direct", id, k, g[k], w[k])
			}
		}
	}
	for i := range c.jobs {
		a, okA := direct.Job(i).Completion()
		b, okB := split.Job(i).Completion()
		if okA != okB || math.Abs(a-b) > tol {
			t.Errorf("job %d completes at %.12g (%v) direct, %.12g (%v) split", i, a, okA, b, okB)
		}
	}
	for _, s := range []*Sim{direct, split} {
		checkWorkConserved(t, s, tol)
	}

	stepped, once := c.sim(t), c.sim(t)
	for _, cut := range c.cuts {
		stepped.StepEventsQuiet(cut)
		if next, ok := stepped.NextEventTime(); ok && next <= cut+TimeEps {
			t.Errorf("stepped to %.12g, an event is still due at %.12g", cut, next)
		}
	}
	stepped.StepEventsQuiet(c.horizon)
	once.StepEventsQuiet(c.horizon)
	if err := sameState(stepped, once); err != nil {
		t.Errorf("stepping at %v left a mark: %v", c.cuts, err)
	}
	// A step followed by the move to the same instant is that advance.
	once.AdvanceTo(c.horizon)
	whole := c.sim(t)
	whole.AdvanceTo(c.horizon)
	if err := sameState(once, whole); err != nil {
		t.Errorf("StepEventsQuiet then AdvanceTo is not AdvanceTo: %v", err)
	}
}

// checkWorkConserved: a station is busy exactly while it serves, at a
// total rate of one second of work per second — less on a thrashing
// CPU — so its busy time is the work its jobs have received, up to the
// tolerance a phase end may leave unserved.
func checkWorkConserved(t *testing.T, s *Sim, tol float64) {
	t.Helper()
	for p := task.Phase(0); p < task.NumPhases; p++ {
		busy, served := s.BusyTime(p), workServed(s, p)
		if busy < served-tol || (busy > served+tol && !(p == task.PhaseCompute && s.cfg.Thrash)) {
			t.Errorf("station %d busy %.12g s for %.12g s of work served", p, busy, served)
		}
	}
}

// workServed sums what the station has served of every job's phase.
func workServed(s *Sim, p task.Phase) float64 {
	served := 0.0
	for _, j := range s.Jobs() {
		full := [task.NumPhases]float64{j.Cost.Input, j.Cost.Compute, j.Cost.Output}
		served += full[p] - j.Remaining[p]
	}
	return served
}

// sameState compares two simulations bit for bit.
func sameState(a, b *Sim) error {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.now, b.now) || a.collapsed != b.collapsed || !same(a.collapseTime, b.collapseTime) || len(a.jobs) != len(b.jobs) || len(a.live) != len(b.live) {
		return fmt.Errorf("clock %v and %v, collapsed %v and %v, %d and %d live of %d and %d jobs",
			a.now, b.now, a.collapsed, b.collapsed, len(a.live), len(b.live), len(a.jobs), len(b.jobs))
	}
	for p := range a.busy {
		if !same(a.busy[p], b.busy[p]) {
			return fmt.Errorf("station %d busy %v and %v", p, a.busy[p], b.busy[p])
		}
	}
	for i, ja := range a.jobs {
		jb := b.jobs[i]
		if ja.ID != jb.ID || ja.State != jb.State {
			return fmt.Errorf("job %d is %v, job %d is %v", ja.ID, ja.State, jb.ID, jb.State)
		}
		for p := range ja.Remaining {
			if !same(ja.Remaining[p], jb.Remaining[p]) || !same(ja.Start[p], jb.Start[p]) || !same(ja.End[p], jb.End[p]) {
				return fmt.Errorf("job %d phase %d: %v [%v, %v] and %v [%v, %v]", ja.ID, p,
					ja.Remaining[p], ja.Start[p], ja.End[p], jb.Remaining[p], jb.Start[p], jb.End[p])
			}
		}
	}
	return nil
}

// randomSplitData draws the bytes of one case; the first is given, so a
// loop spreads the flag combinations evenly.
func randomSplitData(rng *stats.RNG, flags byte) []byte {
	data := make([]byte, 8+rng.Intn(40))
	for k := range data {
		data[k] = byte(rng.Intn(256))
	}
	data[0] = flags
	return data
}

// TestSplitInvariance runs checkSplitCase over seeded random cases and
// requires that they met what they are for: thrashing, a collapse, and
// events in numbers.
func TestSplitInvariance(t *testing.T) {
	rng := stats.NewRNG(20261003)
	collapses, thrashed, events := 0, 0, 0
	for i := 0; i < 3000; i++ {
		data := randomSplitData(rng, byte(i))
		c := buildSplitCase(data)
		checkSplitCase(t, c)
		if t.Failed() {
			t.Fatalf("case %d failed: %x", i, data)
		}
		s, ev := c.run(t, nil)
		events += len(ev)
		if collapsed, _ := s.Collapsed(); collapsed {
			collapses++
		}
		if s.BusyTime(task.PhaseCompute) > workServed(s, task.PhaseCompute)+TimeEps*float64(len(ev)+1) {
			thrashed++
		}
	}
	if collapses < 50 || thrashed < 50 || events < 30000 {
		t.Errorf("%d collapses, %d thrashing runs, %d events: the generator no longer reaches them", collapses, thrashed, events)
	}
}

// TestCompletionsMonotoneSingleStation: when every job uses one station
// only, that station is a single processor-sharing queue, and a job
// added to it, whenever it is released, completes no other job earlier.
// (With several stations it can: TestCrossPhaseCouplingCanAccelerate.)
func TestCompletionsMonotoneSingleStation(t *testing.T) {
	rng := stats.NewRNG(7)
	delayed := 0
	for i := 0; i < 1500; i++ {
		// Bit 1 set, bit 0 clear: one station, no memory model.
		data := randomSplitData(rng, byte(i<<2|2))
		c := buildSplitCase(data)
		if len(c.jobs) < 2 {
			continue
		}
		added := c.jobs[len(c.jobs)-1]
		c.jobs = c.jobs[:len(c.jobs)-1]
		without, ev := c.run(t, nil)
		tol := TimeEps * float64(len(ev)+4)
		c.jobs = append(c.jobs, added)
		with, _ := c.run(t, nil)
		for id := range c.jobs[:len(c.jobs)-1] {
			before, _ := without.Job(id).Completion()
			after, ok := with.Job(id).Completion()
			if !ok || after < before-tol {
				t.Fatalf("case %x: job %d completes at %.12g, at %.12g without the added job", data, id, after, before)
			}
			if after > before+tol {
				delayed++
			}
		}
	}
	if delayed < 500 {
		t.Errorf("only %d completions delayed: the added job rarely shares the station", delayed)
	}
}

// FuzzAdvanceSplit runs checkSplitCase on fuzzer-chosen bytes.
func FuzzAdvanceSplit(f *testing.F) {
	f.Add([]byte{})
	// Zero-cost phases chained at a release, cut at each release.
	f.Add([]byte{0, 2, 4, 0, 4, 0, 3, 2, 64, 128})
	// Three jobs released at one instant and a fourth within the time
	// tolerance of it, on links as slow as the CPU.
	f.Add([]byte{0, 4, 34, 215, 0, 215, 1, 215, 2, 215, 20, 3, 64, 128, 200})
	// Thrash: two 100 MB jobs on 128 MB, cut mid-computation.
	f.Add([]byte{1, 2, 3, 113, 4, 113, 30, 4, 40, 90, 160, 250})
	// Collapse: a second 200 MB footprint exceeds RAM plus swap at its
	// release, a third job still waiting.
	f.Add([]byte{1, 3, 3, 149, 3, 149, 4, 149, 30, 3, 16, 40, 120})
	// One station only (the output link), cuts between every event.
	f.Add([]byte{2 | 2<<2, 4, 3, 30, 4, 24, 3, 18, 0, 12, 20, 8, 20, 60, 100, 140, 180, 220, 240, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip()
		}
		checkSplitCase(t, buildSplitCase(data))
	})
}
