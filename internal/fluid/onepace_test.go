package fluid

import (
	"fmt"
	"math"
	"testing"

	"casched/internal/stats"
	"casched/internal/task"
)

// The loops the one-pace loop (Sim.run) replaced, kept as the reference
// it is held against: RunToIdle called AdvanceTo at each event date, and
// AdvanceTo stepped through the due events, pacing the next one before
// each step and again to find that none was left, and each step's
// progress computed the rates once more. The pace is the one they used
// too, a date per live job. refRunToIdle keeps the old loop's flaw: with
// a finite limit it dropped the events its last AdvanceTo applied, those
// dated within the time tolerance after the limit.

func refRates(s *Sim) (r [task.NumPhases]float64) {
	in, comp, out := s.counts()
	if in > 0 {
		r[task.PhaseInput] = 1 / float64(in)
	}
	if comp > 0 {
		r[task.PhaseCompute] = s.thrashFactor() / float64(comp)
	}
	if out > 0 {
		r[task.PhaseOutput] = 1 / float64(out)
	}
	return r
}

func refPace(s *Sim) (next float64, rates [task.NumPhases]float64) {
	next = math.Inf(1)
	if s.collapsed {
		return next, rates
	}
	rates = refRates(s)
	for _, j := range s.live {
		t := j.Release
		if j.State != StateWaiting {
			p := phaseOf(j.State)
			t = s.now + j.Remaining[p]/rates[p]
		}
		if t < next {
			next = t
		}
	}
	return next, rates
}

func refNextEventTime(s *Sim) (float64, bool) {
	next, _ := refPace(s)
	return next, !math.IsInf(next, 1)
}

func refStepEvents(s *Sim, t float64, collect bool) []Event {
	var events []Event
	for !s.collapsed {
		next, ok := refNextEventTime(s)
		if !ok || next > t+TimeEps {
			break
		}
		if next < s.now {
			next = s.now
		}
		refProgress(s, next)
		events = s.transition(next, events, collect)
	}
	return events
}

func refAdvance(s *Sim, t float64, collect bool) []Event {
	if t < s.now-TimeEps {
		panic(fmt.Sprintf("fluid: server %s: AdvanceTo(%.6f) precedes now %.6f", s.cfg.Name, t, s.now))
	}
	if len(s.live) == 0 {
		if t > s.now {
			s.now = t
		}
		return nil
	}
	events := refStepEvents(s, t, collect)
	if !s.collapsed && t > s.now {
		refProgress(s, t)
	}
	if t > s.now {
		s.now = t
	}
	return events
}

func refProgress(s *Sim, t float64) {
	dt := t - s.now
	if dt <= 0 {
		s.now = math.Max(s.now, t)
		return
	}
	rates := refRates(s)
	for p, r := range rates {
		if r > 0 {
			s.busy[p] += dt
		}
	}
	for _, j := range s.live {
		switch j.State {
		case StateInput, StateCompute, StateOutput:
			p := phaseOf(j.State)
			j.Remaining[p] -= dt * rates[p]
			if j.Remaining[p] < 0 {
				j.Remaining[p] = 0
			}
		}
	}
	s.now = t
}

func refRunToIdle(s *Sim, limit float64, collect bool) []Event {
	var events []Event
	for s.ActiveCount() > 0 && !s.collapsed {
		next, ok := refNextEventTime(s)
		if !ok {
			break
		}
		if next > limit {
			refAdvance(s, limit, collect)
			break
		}
		events = append(events, refAdvance(s, next, collect)...)
	}
	return events
}

// sameEvents compares two event logs bit for bit.
func sameEvents(a, b []Event) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d and %d events", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].JobID != b[i].JobID || a[i].Phase != b[i].Phase ||
			math.Float64bits(a[i].Time) != math.Float64bits(b[i].Time) {
			return fmt.Errorf("event %d: %+v and %+v", i, a[i], b[i])
		}
	}
	return nil
}

// onePaceTally counts what the checked cases reached.
type onePaceTally struct {
	collapses, thrashed, events, limitEvents, finiteLimits int
}

// checkOnePace runs one generated case through the one-pace loop and
// through the reference loops side by side: an advance, a quiet advance
// or a step to each cut (which leaves jobs in every state between them),
// then a run to idle under a finite limit, dated at, just before or just
// after an event of the rest of the run, and a run to idle with none.
// After every call both sims must agree bit for bit, job by job, and so
// must the events each call reports, but for the events the reference's
// finite-limit run dropped: those must be exactly the ones dated within
// the time tolerance after the limit. A step must return the pace of the
// state it leaves, and Pace, one pass over the live jobs, must date the
// next event as a date per job does.
func checkOnePace(t *testing.T, data []byte, tally *onePaceTally) {
	t.Helper()
	c := buildSplitCase(data)
	got, want := c.sim(t), c.sim(t)
	pick := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[(7*i+3)%len(data)])
	}
	compare := func(what string, a, b []Event) {
		t.Helper()
		if err := sameEvents(a, b); err != nil {
			t.Fatalf("%s: events: %v", what, err)
		}
		if err := sameState(got, want); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		next, rates := got.Pace()
		wantNext, wantRates := refPace(want)
		if math.Float64bits(next) != math.Float64bits(wantNext) || rates != wantRates {
			t.Fatalf("%s: paced %v %v, a date per job gives %v %v", what, next, rates, wantNext, wantRates)
		}
	}
	for i, cut := range c.cuts {
		what := fmt.Sprintf("cut %d at %v", i, cut)
		switch pick(i) % 3 {
		case 0:
			compare("AdvanceTo "+what, got.AdvanceTo(cut), refAdvance(want, cut, true))
		case 1:
			got.AdvanceToQuiet(cut)
			compare("AdvanceToQuiet "+what, nil, refAdvance(want, cut, false))
		case 2:
			next, rates := got.StepEventsQuiet(cut)
			compare("StepEventsQuiet "+what, nil, refStepEvents(want, cut, false))
			wantNext, wantRates := refPace(want)
			if math.Float64bits(next) != math.Float64bits(wantNext) || rates != wantRates {
				t.Fatalf("StepEventsQuiet %s stopped on %v %v, the state paces %v %v", what, next, rates, wantNext, wantRates)
			}
		}
	}

	// A finite limit near an event of the rest of the run.
	rest := got.Clone().RunToIdle(math.Inf(1))
	if len(rest) > 0 {
		tally.finiteLimits++
		k := pick(len(c.cuts))
		limit := rest[k%len(rest)].Time + []float64{0, -TimeEps / 2, TimeEps / 2, -2 * TimeEps}[k/64%4]
		limit = max(limit, got.Now())
		gotEvents := got.RunToIdle(limit)
		wantEvents := refRunToIdle(want, limit, true)
		if len(gotEvents) < len(wantEvents) {
			t.Fatalf("RunToIdle(%v): %d events, the reference %d", limit, len(gotEvents), len(wantEvents))
		}
		compare(fmt.Sprintf("RunToIdle(%v)", limit), gotEvents[:len(wantEvents)], wantEvents)
		for _, e := range gotEvents[len(wantEvents):] {
			if e.Time <= limit || e.Time > limit+TimeEps {
				t.Fatalf("RunToIdle(%v) reports %+v beyond what the reference drops", limit, e)
			}
			tally.limitEvents++
		}
	}
	if pick(len(c.cuts)+1)%2 == 0 {
		compare("RunToIdle", got.RunToIdle(math.Inf(1)), refRunToIdle(want, math.Inf(1), true))
	} else {
		got.RunToIdleQuiet(math.Inf(1))
		compare("RunToIdleQuiet", nil, refRunToIdle(want, math.Inf(1), false))
	}
	tally.events += len(rest)
	if collapsed, _ := got.Collapsed(); collapsed {
		tally.collapses++
	}
	if got.BusyTime(task.PhaseCompute) > workServed(got, task.PhaseCompute)+TimeEps*float64(len(rest)+len(c.jobs)*6+1) {
		tally.thrashed++
	}
}

// TestOnePacePerEventSameBits holds the one-pace loop against the loops
// it replaced on seeded random cases, and requires that the cases met
// what they are for: collapses, thrashing, events in numbers and events
// in the tolerance after a finite limit.
func TestOnePacePerEventSameBits(t *testing.T) {
	rng := stats.NewRNG(20261016)
	var tally onePaceTally
	for i := 0; i < 3000; i++ {
		data := randomSplitData(rng, byte(i))
		checkOnePace(t, data, &tally)
		if t.Failed() {
			t.Fatalf("case %d failed: %x", i, data)
		}
	}
	t.Logf("%+v", tally)
	if tally.collapses < 50 || tally.thrashed < 50 || tally.events < 20000 || tally.limitEvents < 50 || tally.finiteLimits < 1500 {
		t.Errorf("%+v: the generator no longer reaches them", tally)
	}
}

// TestRunToIdleLimitKeepsEvents: a run to a limit just short of an event
// applies that event, as AdvanceTo to the limit does, and reports it.
func TestRunToIdleLimitKeepsEvents(t *testing.T) {
	s := New(Config{Name: "srv"})
	if err := s.Add(0, 0, task.Cost{Input: 1, Compute: 2, Output: 1}, 0); err != nil {
		t.Fatal(err)
	}
	events := s.RunToIdle(3 - TimeEps/2)
	if s.Job(0).State != StateOutput {
		t.Fatalf("job is %v, want output", s.Job(0).State)
	}
	want := []Event{
		{Kind: EventPhaseStart, JobID: 0, Phase: task.PhaseInput, Time: 0},
		{Kind: EventPhaseEnd, JobID: 0, Phase: task.PhaseInput, Time: 1},
		{Kind: EventPhaseStart, JobID: 0, Phase: task.PhaseCompute, Time: 1},
		{Kind: EventPhaseEnd, JobID: 0, Phase: task.PhaseCompute, Time: 3},
		{Kind: EventPhaseStart, JobID: 0, Phase: task.PhaseOutput, Time: 3},
	}
	if err := sameEvents(events, want); err != nil {
		t.Fatalf("%v:\n got  %+v\n want %+v", err, events, want)
	}
}

// FuzzRunToIdleSameBits runs checkOnePace on fuzzer-chosen bytes.
func FuzzRunToIdleSameBits(f *testing.F) {
	f.Add([]byte{})
	// Zero-cost phases chained at a release, cut at each release.
	f.Add([]byte{0, 2, 4, 0, 4, 0, 3, 2, 64, 128})
	// Thrash: two 100 MB jobs on 128 MB, cut mid-computation.
	f.Add([]byte{1, 2, 3, 113, 4, 113, 30, 4, 40, 90, 160, 250})
	// Collapse: a second 200 MB footprint exceeds RAM plus swap at its
	// release, a third job still waiting.
	f.Add([]byte{1, 3, 3, 149, 3, 149, 4, 149, 30, 3, 16, 40, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip()
		}
		var tally onePaceTally
		checkOnePace(t, data, &tally)
	})
}
