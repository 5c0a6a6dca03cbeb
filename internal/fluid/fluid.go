// Package fluid implements the shared-resource execution model of the
// paper (§2.3): on one server, every resident task progresses through
// three serial phases — input transfer, computation, output transfer —
// and concurrent tasks in the same phase share the corresponding
// resource equally (n simultaneous computations each receive 1/n of the
// CPU; simultaneous transfers share the link likewise).
//
// The simulation is a fluid / discrete-event hybrid: between two events
// (a phase completion, a job release, a collapse) every progress rate is
// constant, so the simulator advances in closed form from event to
// event. This is exactly the discrete simulation the paper's Historical
// Trace Manager performs, and it is also the execution substrate of the
// grid simulator — the two differ only in the costs they are fed
// (nominal vs. noise-perturbed) and in whether memory is modelled.
//
// One loop (Sim.run) moves every simulation, whether it is advanced to an
// instant, stepped through its due events or run to idle, and it paces
// each event once: the Pace that dates the next event also gives the
// rates every job progresses at until then, and those very rates serve
// the work up to it, and Pace reads the live jobs in one pass. The dates
// have the bits of a loop that paced an event again at every level that
// looks at it: Pace and the rates are pure functions of the simulation's
// state, so a value computed once on a state is the value computed again
// on it, and the loop applies the same progress and the same transitions
// at the same arguments in the same order (TestOnePacePerEventSameBits
// holds it against such loops and a Pace that dates every job).
//
// The memory model reproduces §5.1: each job holds its footprint from
// activation until output completion; when the total demand exceeds the
// server's RAM the CPU thrashes (rates multiplied by RAM/demand); when
// it exceeds RAM+swap the server collapses and every resident job is
// lost.
package fluid

import (
	"fmt"
	"math"
	"sort"

	"casched/internal/task"
)

// TimeEps is the tolerance used when comparing simulation times: an
// event dated within TimeEps after t is due at t.
const TimeEps = 1e-9

// State enumerates the lifecycle of a job inside a server simulation.
type State int

const (
	// StateWaiting means the job's release date is in the future.
	StateWaiting State = iota
	// StateInput means the job is receiving its input data.
	StateInput
	// StateCompute means the job is computing.
	StateCompute
	// StateOutput means the job is sending its output data.
	StateOutput
	// StateDone means the job completed successfully.
	StateDone
	// StateFailed means the job was lost in a server collapse.
	StateFailed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateWaiting:
		return "waiting"
	case StateInput:
		return "input"
	case StateCompute:
		return "compute"
	case StateOutput:
		return "output"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// EventKind distinguishes the observable transitions a simulation emits.
type EventKind int

const (
	// EventPhaseStart marks a job entering a phase.
	EventPhaseStart EventKind = iota
	// EventPhaseEnd marks a job finishing a phase.
	EventPhaseEnd
	// EventDone marks a job finishing its last phase.
	EventDone
	// EventFailed marks a job lost to a server collapse.
	EventFailed
	// EventCollapse marks the server itself collapsing.
	EventCollapse
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EventPhaseStart:
		return "phase-start"
	case EventPhaseEnd:
		return "phase-end"
	case EventDone:
		return "done"
	case EventFailed:
		return "failed"
	case EventCollapse:
		return "collapse"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one observable transition, reported by AdvanceTo and
// RunToIdle in chronological order.
type Event struct {
	Kind  EventKind
	JobID int        // -1 for EventCollapse
	Phase task.Phase // meaningful for phase events
	Time  float64
}

// Config parameterizes a server simulation.
type Config struct {
	// Name labels the server in errors and Gantt output.
	Name string
	// RAMMB is the main memory in megabytes. Zero or negative means
	// memory is not modelled (infinite): this is how the paper's HTM
	// operates ("the allocation model does not take the memory
	// requirements into consideration").
	RAMMB float64
	// SwapMB is the swap space in megabytes, used only when RAMMB > 0.
	SwapMB float64
	// Thrash enables a CPU slowdown when demand exceeds RAM but stays
	// under RAM+swap.
	Thrash bool
	// ThrashAlpha tunes the slowdown: the CPU rate is multiplied by
	// 1/(1+alpha*(demand-RAM)/RAM). Alpha=1 is the harsh linear model
	// (factor RAM/demand); the default 0.5 models a compute-bound
	// workload with good locality whose working set only partially
	// touches swap. Zero selects the default.
	ThrashAlpha float64
}

// Job is the externally visible record of one task inside a simulation.
type Job struct {
	ID       int
	Release  float64 // date the job was placed on the server
	Cost     task.Cost
	MemoryMB float64

	State     State
	Remaining [task.NumPhases]float64 // work left per phase, seconds of unloaded resource
	Start     [task.NumPhases]float64 // phase start dates (NaN until started)
	End       [task.NumPhases]float64 // phase end dates (NaN until ended)
}

// Completion returns the job's completion date (end of output phase)
// and whether it has completed.
func (j *Job) Completion() (float64, bool) {
	if j.State != StateDone {
		return 0, false
	}
	return j.End[task.PhaseOutput], true
}

// Sim is the fluid simulation of one time-shared server. The zero value
// is not usable; construct with New. Sim is not safe for concurrent use,
// but clones obtained from Clone may be advanced concurrently with each
// other and with the original (they share only immutable terminal job
// records).
type Sim struct {
	cfg  Config
	now  float64
	jobs []*Job
	byID map[int]*Job // lazy: nil on clones until an id lookup is needed

	// live holds the non-terminal jobs (waiting or in an active phase),
	// so that per-event work is proportional to the number of resident
	// tasks rather than to the whole history of the server.
	live []*Job

	collapsed    bool
	collapseTime float64

	// busy accumulates the seconds during which each resource (input
	// link, CPU, output link) had at least one active job — the
	// utilization accounting behind the load-balance analysis.
	busy [task.NumPhases]float64

	// slab backs the job records of reusable projection clones
	// (CloneLiveInto): while the slab has spare capacity, Add carves
	// records out of it instead of the heap. Nil on ordinary sims.
	slab []Job
	// free recycles job records that PruneCompletedBefore retired, so a
	// long-lived trace places new work without heap allocation. Disabled
	// (never fed) once Clone has shared terminal records with a clone —
	// recycling a shared record would mutate the clone's view.
	free []*Job
	// shared is set when Clone shared terminal job records out of this
	// sim (or into it); it permanently disables record recycling.
	shared bool
}

// New constructs a server simulation starting at time 0.
func New(cfg Config) *Sim {
	return &Sim{cfg: cfg, byID: make(map[int]*Job)}
}

// Name returns the configured server name.
func (s *Sim) Name() string { return s.cfg.Name }

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// Collapsed reports whether the server has collapsed, and when.
func (s *Sim) Collapsed() (bool, float64) { return s.collapsed, s.collapseTime }

// Jobs returns the jobs in release order. The returned slice is shared;
// callers must not modify it.
func (s *Sim) Jobs() []*Job { return s.jobs }

// Live returns the non-terminal (waiting or active) jobs in release
// order. The returned slice is shared and is reused by later
// advancement; callers that advance the simulation afterwards must copy
// it first.
func (s *Sim) Live() []*Job { return s.live }

// Job returns the job with the given id, or nil.
func (s *Sim) Job(id int) *Job {
	s.ensureIndex()
	return s.byID[id]
}

// ensureIndex builds the id index when it was dropped by Clone.
func (s *Sim) ensureIndex() {
	if s.byID != nil {
		return
	}
	s.byID = make(map[int]*Job, len(s.jobs))
	for _, j := range s.jobs {
		s.byID[j.ID] = j
	}
}

// Add places a new job on the server. The release date must not precede
// the current simulation time, the id must be unused, and the server
// must not have collapsed.
func (s *Sim) Add(id int, release float64, cost task.Cost, memoryMB float64) error {
	if s.collapsed {
		return fmt.Errorf("fluid: server %s: add job %d: server collapsed at %.3f",
			s.cfg.Name, id, s.collapseTime)
	}
	if release < s.now-TimeEps {
		return fmt.Errorf("fluid: server %s: add job %d: release %.6f precedes now %.6f",
			s.cfg.Name, id, release, s.now)
	}
	if s.byID != nil {
		if _, dup := s.byID[id]; dup {
			return fmt.Errorf("fluid: server %s: duplicate job id %d", s.cfg.Name, id)
		}
	} else {
		// Clone dropped the index; a linear scan avoids rebuilding a
		// map just to add one candidate job.
		for _, j := range s.jobs {
			if j.ID == id {
				return fmt.Errorf("fluid: server %s: duplicate job id %d", s.cfg.Name, id)
			}
		}
	}
	if release < s.now {
		release = s.now
	}
	var j *Job
	switch {
	case len(s.slab) < cap(s.slab):
		// Reusable clone: the slab was sized with one spare record for
		// the candidate job, so this append cannot move the backing
		// array out from under the pointers already handed out.
		s.slab = append(s.slab, Job{})
		j = &s.slab[len(s.slab)-1]
	case len(s.free) > 0:
		j = s.free[len(s.free)-1]
		s.free[len(s.free)-1] = nil
		s.free = s.free[:len(s.free)-1]
	default:
		j = new(Job)
	}
	*j = Job{ID: id, Release: release, Cost: cost, MemoryMB: memoryMB, State: StateWaiting}
	j.Remaining[task.PhaseInput] = cost.Input
	j.Remaining[task.PhaseCompute] = cost.Compute
	j.Remaining[task.PhaseOutput] = cost.Output
	for p := task.Phase(0); p < task.NumPhases; p++ {
		j.Start[p] = math.NaN()
		j.End[p] = math.NaN()
	}
	s.jobs = append(s.jobs, j)
	s.live = append(s.live, j)
	if s.byID != nil {
		s.byID[id] = j
	}
	return nil
}

// counts returns the number of jobs currently in each of the three
// active phases.
func (s *Sim) counts() (in, comp, out int) {
	for _, j := range s.live {
		switch j.State {
		case StateInput:
			in++
		case StateCompute:
			comp++
		case StateOutput:
			out++
		}
	}
	return
}

// MemoryDemand returns the total resident footprint of active jobs.
func (s *Sim) MemoryDemand() float64 {
	d := 0.0
	for _, j := range s.live {
		switch j.State {
		case StateInput, StateCompute, StateOutput:
			d += j.MemoryMB
		}
	}
	return d
}

// LoadAvg returns the number of jobs currently computing — the analogue
// of the Unix run-queue length the paper's monitors report.
func (s *Sim) LoadAvg() float64 {
	_, comp, _ := s.counts()
	return float64(comp)
}

// ActiveCount returns the number of jobs that are active or waiting.
func (s *Sim) ActiveCount() int { return len(s.live) }

// thrashFactor returns the CPU rate multiplier from memory pressure.
func (s *Sim) thrashFactor() float64 {
	if s.cfg.RAMMB <= 0 || !s.cfg.Thrash {
		return 1
	}
	d := s.MemoryDemand()
	if d <= s.cfg.RAMMB {
		return 1
	}
	alpha := s.cfg.ThrashAlpha
	if alpha == 0 {
		alpha = 0.5
	}
	over := (d - s.cfg.RAMMB) / s.cfg.RAMMB
	return 1 / (1 + alpha*over)
}

// rates returns the progress rate of a job in each phase, given the
// number of jobs in each: an equal share of the station, the CPU's slowed
// by memory pressure; zero where no job is in the phase.
func (s *Sim) rates(n [task.NumPhases]int) (r [task.NumPhases]float64) {
	if n[task.PhaseInput] > 0 {
		r[task.PhaseInput] = 1 / float64(n[task.PhaseInput])
	}
	if n[task.PhaseCompute] > 0 {
		r[task.PhaseCompute] = s.thrashFactor() / float64(n[task.PhaseCompute])
	}
	if n[task.PhaseOutput] > 0 {
		r[task.PhaseOutput] = 1 / float64(n[task.PhaseOutput])
	}
	return r
}

// NextEventTime returns the earliest time at which the simulation state
// changes (a release or a phase completion), or ok=false if the server
// is idle (or collapsed).
func (s *Sim) NextEventTime() (float64, bool) {
	next, _ := s.Pace()
	return next, !math.IsInf(next, 1)
}

// Pace returns the date of the next event (+Inf if the server is idle
// or collapsed) and the rate at which a job in each phase progresses
// until then. Rates are constant between events, so a caller that keeps
// both knows what every job has left at any instant before that date
// without advancing the simulation.
//
// One pass over the live jobs counts the jobs in each phase and finds the
// least work left in each and the earliest release. The earliest phase
// end of a phase is the one of its least work: now + w/rate rises with w
// in floating point as in the reals (division and addition are rounded
// monotonically), so the date of the least work is the least date, the
// same bits as a date computed per job.
func (s *Sim) Pace() (next float64, rates [task.NumPhases]float64) {
	next = math.Inf(1)
	if s.collapsed {
		return next, rates
	}
	var n [task.NumPhases]int
	var least [task.NumPhases]float64
	for _, j := range s.live {
		if j.State == StateWaiting {
			next = min(next, j.Release)
			continue
		}
		p := phaseOf(j.State)
		if n[p] == 0 || j.Remaining[p] < least[p] {
			least[p] = j.Remaining[p]
		}
		n[p]++
	}
	rates = s.rates(n)
	for p, k := range n {
		if k > 0 {
			next = min(next, s.now+least[p]/rates[p])
		}
	}
	return next, rates
}

// phaseOf maps an active state to its phase index.
func phaseOf(st State) task.Phase {
	switch st {
	case StateInput:
		return task.PhaseInput
	case StateCompute:
		return task.PhaseCompute
	case StateOutput:
		return task.PhaseOutput
	}
	panic("fluid: phaseOf on inactive state")
}

// AdvanceTo advances the simulation to time t, which must not precede
// the current time, and returns the events that occurred in (now, t],
// in chronological order.
func (s *Sim) AdvanceTo(t float64) []Event { return s.advance(t, true) }

// AdvanceToQuiet is AdvanceTo without the event log: callers that
// discard the events (the HTM's trace clock) advance allocation-free.
func (s *Sim) AdvanceToQuiet(t float64) { s.advance(t, false) }

// StepEventsQuiet applies the events due by t, the ones AdvanceTo(t)
// would apply, and leaves the clock at the last of them instead of
// moving it on to t: the state is then a function of the jobs added and
// their dates alone, whatever instants the simulation was stepped at. It
// returns what Pace returns on the state it leaves, the pace it stopped
// on, so a caller that keeps both need not pace the sim again.
func (s *Sim) StepEventsQuiet(t float64) (next float64, rates [task.NumPhases]float64) {
	_, next, rates = s.run(t, t, false)
	return next, rates
}

// advance implements AdvanceTo; with collect=false no event slice is
// built, which keeps throwaway projections allocation-free.
func (s *Sim) advance(t float64, collect bool) []Event {
	s.checkNotBefore(t)
	if len(s.live) == 0 {
		// Nothing resident: only the clock moves.
		if t > s.now {
			s.now = t
		}
		return nil
	}
	events, _, rates := s.run(t, t, collect)
	s.finishAt(t, rates)
	return events
}

// checkNotBefore panics when t precedes the clock by more than the time
// tolerance.
func (s *Sim) checkNotBefore(t float64) {
	if t < s.now-TimeEps {
		panic(fmt.Sprintf("fluid: server %s: AdvanceTo(%.6f) precedes now %.6f", s.cfg.Name, t, s.now))
	}
}

// finishAt moves the clock on from the last event applied to t, serving
// the work due until then at rates, those of the pace run stopped on.
func (s *Sim) finishAt(t float64, rates [task.NumPhases]float64) {
	if !s.collapsed && t > s.now {
		s.progressAt(t, rates)
	}
	if t > s.now {
		s.now = t
	}
}

// run is the simulation's one event loop, behind AdvanceTo,
// StepEventsQuiet and RunToIdle. It applies the due events in date
// order, each at its own date, and paces each once: one Pace gives the
// event's date and the rates that held until it, progressAt serves the
// work at those rates and transition applies the event. An event is due
// while its date is within TimeEps of until. Past until, the run goes on
// to the next event as long as that lies within limit, which becomes the
// new until; past limit as well, until becomes limit. So run(t, t) is
// the steps of AdvanceTo(t), and run(-Inf, limit) those of RunToIdle:
// the same events as one AdvanceTo per event date and a last one to the
// limit, with the same progress and transition calls on the same
// arguments. Pace and rates are pure functions of the state, so a date
// paced once has the bits of one paced again on that state. It returns
// the events and the pace it stopped on: the date of the first event not
// applied and the rates until then, or +Inf once the sim is idle or
// collapsed. A finite date means the run stopped past limit.
func (s *Sim) run(until, limit float64, collect bool) (events []Event, next float64, rates [task.NumPhases]float64) {
	for !s.collapsed {
		next, rates = s.Pace()
		if math.IsInf(next, 1) {
			return events, next, rates
		}
		if next > until+TimeEps {
			until = min(next, limit)
			if next > until+TimeEps {
				return events, next, rates
			}
		}
		if next < s.now {
			next = s.now
		}
		s.progressAt(next, rates)
		events = s.transition(next, events, collect)
	}
	return events, math.Inf(1), [task.NumPhases]float64{}
}

// progressAt consumes work between s.now and t at the given rates, the
// ones Pace returned on the current state.
func (s *Sim) progressAt(t float64, rates [task.NumPhases]float64) {
	dt := t - s.now
	if dt <= 0 {
		s.now = math.Max(s.now, t)
		return
	}
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

// compactLive drops terminal jobs from the live list.
func (s *Sim) compactLive() {
	kept := s.live[:0]
	for _, j := range s.live {
		if j.State != StateDone && j.State != StateFailed {
			kept = append(kept, j)
		}
	}
	for i := len(kept); i < len(s.live); i++ {
		s.live[i] = nil
	}
	s.live = kept
}

// transition applies all zero-time state changes at the current instant:
// releases, phase completions (possibly chained through zero-cost
// phases), memory acquisition and collapse. It appends emitted events.
func (s *Sim) transition(t float64, events []Event, collect bool) []Event {
	defer s.compactLive()
	for changed := true; changed && !s.collapsed; {
		changed = false
		for _, j := range s.live {
			switch j.State {
			case StateWaiting:
				if j.Release <= t+TimeEps {
					j.State = StateInput
					j.Start[task.PhaseInput] = t
					if collect {
						events = append(events, Event{Kind: EventPhaseStart, JobID: j.ID, Phase: task.PhaseInput, Time: t})
					}
					changed = true
					// Memory is acquired at activation: input data
					// streams into server memory.
					if ev, collapsed := s.checkCollapse(t, collect); collapsed {
						return append(events, ev...)
					}
				}
			case StateInput, StateCompute, StateOutput:
				p := phaseOf(j.State)
				if j.Remaining[p] <= TimeEps {
					j.Remaining[p] = 0
					j.End[p] = t
					if collect {
						events = append(events, Event{Kind: EventPhaseEnd, JobID: j.ID, Phase: p, Time: t})
					}
					switch p {
					case task.PhaseInput:
						j.State = StateCompute
						j.Start[task.PhaseCompute] = t
						if collect {
							events = append(events, Event{Kind: EventPhaseStart, JobID: j.ID, Phase: task.PhaseCompute, Time: t})
						}
					case task.PhaseCompute:
						j.State = StateOutput
						j.Start[task.PhaseOutput] = t
						if collect {
							events = append(events, Event{Kind: EventPhaseStart, JobID: j.ID, Phase: task.PhaseOutput, Time: t})
						}
					case task.PhaseOutput:
						j.State = StateDone
						if collect {
							events = append(events, Event{Kind: EventDone, JobID: j.ID, Phase: task.PhaseOutput, Time: t})
						}
					}
					changed = true
				}
			}
		}
	}
	return events
}

// checkCollapse verifies the memory capacity after an acquisition. On
// collapse it fails every resident job and returns the emitted events.
func (s *Sim) checkCollapse(t float64, collect bool) ([]Event, bool) {
	if s.cfg.RAMMB <= 0 {
		return nil, false
	}
	if s.MemoryDemand() <= s.cfg.RAMMB+s.cfg.SwapMB {
		return nil, false
	}
	s.collapsed = true
	s.collapseTime = t
	var events []Event
	if collect {
		events = append(events, Event{Kind: EventCollapse, JobID: -1, Time: t})
	}
	for _, j := range s.live {
		// Mid-transition the live list may still hold a job that just
		// finished at this same instant (compaction is deferred): a
		// completed job must not be retroactively failed.
		if j.State == StateDone || j.State == StateFailed {
			continue
		}
		j.State = StateFailed
		if collect {
			events = append(events, Event{Kind: EventFailed, JobID: j.ID, Time: t})
		}
	}
	s.compactLive()
	return events, true
}

// RunToIdle advances the simulation until no job is active or waiting,
// or until the time limit (use math.Inf(1) for none). It returns the
// events emitted, those dated within the time tolerance after the limit
// included, since AdvanceTo(limit) applies them too. RunToIdle is how
// the HTM projects the completion date of every resident task.
func (s *Sim) RunToIdle(limit float64) []Event { return s.runToIdle(limit, true) }

// RunToIdleQuiet is RunToIdle without the event log: throwaway
// projection clones use it to run to completion allocation-free.
func (s *Sim) RunToIdleQuiet(limit float64) { s.runToIdle(limit, false) }

func (s *Sim) runToIdle(limit float64, collect bool) []Event {
	if len(s.live) > 0 && !s.collapsed {
		s.checkNotBefore(limit)
	}
	events, next, rates := s.run(math.Inf(-1), limit, collect)
	if !math.IsInf(next, 1) {
		s.finishAt(limit, rates)
	}
	return events
}

// Clone returns a copy of the simulation that the receiver's future
// mutations cannot disturb. Cloning is copy-on-write: terminal (done or
// failed) job records are immutable and shared with the receiver, only
// the live jobs are deep-copied, and the id index is rebuilt lazily.
// This makes cloning O(live jobs) rather than O(history), which is what
// lets the HTM evaluate candidate placements cheaply on long traces.
// A clone may be advanced concurrently with the original.
func (s *Sim) Clone() *Sim {
	c := &Sim{
		cfg:          s.cfg,
		now:          s.now,
		collapsed:    s.collapsed,
		collapseTime: s.collapseTime,
		busy:         s.busy,
		jobs:         make([]*Job, len(s.jobs)),
		live:         make([]*Job, 0, len(s.live)+1),
	}
	// Terminal records are now shared: neither side may recycle them.
	s.shared = true
	c.shared = true
	for i, j := range s.jobs {
		if j.State == StateDone || j.State == StateFailed {
			c.jobs[i] = j // immutable once terminal; shared
			continue
		}
		cp := *j
		c.jobs[i] = &cp
		c.live = append(c.live, &cp)
	}
	return c
}

// CloneLive returns a projection clone containing only the live
// (waiting or active) jobs: the finished history is dropped entirely,
// so the clone costs O(live) no matter how long the server has been
// running. The trade-offs against Clone: the clone's Jobs, Completions
// and utilization views forget finished work, and job-id uniqueness is
// only enforced against the live set. This is the clone the HTM's hot
// evaluation path uses — a candidate projection only ever needs the
// jobs that can still be perturbed.
func (s *Sim) CloneLive() *Sim {
	c := &Sim{
		cfg:          s.cfg,
		now:          s.now,
		collapsed:    s.collapsed,
		collapseTime: s.collapseTime,
		busy:         s.busy,
		jobs:         make([]*Job, 0, len(s.live)+1),
		live:         make([]*Job, 0, len(s.live)+1),
	}
	for _, j := range s.live {
		cp := *j
		c.jobs = append(c.jobs, &cp)
		c.live = append(c.live, &cp)
	}
	return c
}

// CloneLiveInto is CloneLive writing into a reusable destination sim:
// the destination's job records live in a slab it owns, so a pooled
// destination makes repeated candidate projections allocation-free once
// its buffers have grown to the working-set size. A nil destination
// allocates a fresh one. The returned sim is the destination.
func (s *Sim) CloneLiveInto(dst *Sim) *Sim {
	if dst == nil {
		dst = &Sim{}
	}
	n := len(s.live)
	// One spare record so Add can place the candidate job without
	// growing (and thus moving) the slab.
	if cap(dst.slab) < n+1 {
		dst.slab = make([]Job, 0, 2*(n+1))
	}
	dst.cfg = s.cfg
	dst.now = s.now
	dst.collapsed = s.collapsed
	dst.collapseTime = s.collapseTime
	dst.busy = s.busy
	dst.byID = nil
	dst.free = nil
	dst.shared = false
	dst.slab = dst.slab[:n]
	dst.jobs = dst.jobs[:0]
	dst.live = dst.live[:0]
	for i, j := range s.live {
		dst.slab[i] = *j
		p := &dst.slab[i]
		dst.jobs = append(dst.jobs, p)
		dst.live = append(dst.live, p)
	}
	return dst
}

// Completions returns the completion date of every finished job, keyed
// by job id.
func (s *Sim) Completions() map[int]float64 {
	out := make(map[int]float64)
	for _, j := range s.jobs {
		if c, ok := j.Completion(); ok {
			out[j.ID] = c
		}
	}
	return out
}

// ProjectedCompletions clones the simulation, runs the clone to idle
// and returns every job's (projected or actual) completion date. Jobs
// lost to a collapse in the projection are absent from the result.
func (s *Sim) ProjectedCompletions() map[int]float64 {
	c := s.Clone()
	c.RunToIdle(math.Inf(1))
	return c.Completions()
}

// Remove deletes a completed or failed job record from the simulation.
// Removing active jobs is an error: the fluid model has no preemption.
func (s *Sim) Remove(id int) error {
	s.ensureIndex()
	j, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("fluid: server %s: remove: unknown job %d", s.cfg.Name, id)
	}
	if j.State != StateDone && j.State != StateFailed {
		return fmt.Errorf("fluid: server %s: remove: job %d is %s", s.cfg.Name, id, j.State)
	}
	delete(s.byID, id)
	for i, jj := range s.jobs {
		if jj.ID == id {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	return nil
}

// PruneCompletedBefore removes terminal job records that ended before
// the cutoff: done jobs whose completion date precedes it, and failed
// jobs released before it. Live (waiting or active) jobs are never
// touched, so pruning cannot change the simulation's trajectory or any
// projection derived from it — it only forgets history. The removed
// job ids are appended to removed (a reusable caller buffer) and the
// grown slice returned, so callers can evict their own bookkeeping
// without a per-prune allocation.
func (s *Sim) PruneCompletedBefore(cutoff float64, removed []int) []int {
	kept := s.jobs[:0]
	for _, j := range s.jobs {
		prune := false
		switch j.State {
		case StateDone:
			prune = j.End[task.PhaseOutput] < cutoff
		case StateFailed:
			prune = j.Release < cutoff
		}
		if prune {
			removed = append(removed, j.ID)
			if s.byID != nil {
				delete(s.byID, j.ID)
			}
			if !s.shared {
				s.free = append(s.free, j)
			}
			continue
		}
		kept = append(kept, j)
	}
	for i := len(kept); i < len(s.jobs); i++ {
		s.jobs[i] = nil
	}
	s.jobs = kept
	return removed
}

// BusyTime returns the cumulative seconds during which the given
// resource (phase) had at least one active job.
func (s *Sim) BusyTime(p task.Phase) float64 {
	if p < 0 || p >= task.NumPhases {
		return 0
	}
	return s.busy[p]
}

// Utilization returns the CPU busy fraction since time zero (0 when no
// time has elapsed).
func (s *Sim) Utilization() float64 {
	if s.now <= 0 {
		return 0
	}
	return s.busy[task.PhaseCompute] / s.now
}

// Kill collapses the server at time t regardless of memory state — the
// failure-injection hook. All resident jobs are lost; the emitted
// events mirror a memory collapse. Killing a collapsed server is a
// no-op.
func (s *Sim) Kill(t float64) []Event {
	if s.collapsed {
		return nil
	}
	events := s.AdvanceTo(t)
	if s.collapsed {
		return events
	}
	s.collapsed = true
	s.collapseTime = t
	events = append(events, Event{Kind: EventCollapse, JobID: -1, Time: t})
	for _, j := range s.live {
		if j.State == StateDone || j.State == StateFailed {
			continue
		}
		j.State = StateFailed
		events = append(events, Event{Kind: EventFailed, JobID: j.ID, Time: t})
	}
	s.compactLive()
	return events
}

// ForceComplete advances the simulation to time t and marks the job as
// finished at that instant, regardless of remaining work. This is the
// hook for the HTM↔execution synchronization extension (paper §7): when
// the agent learns a task's true completion date, the trace can be
// re-anchored so that later predictions start from reality rather than
// from the open-loop projection. Completing an already-done job is a
// no-op.
func (s *Sim) ForceComplete(id int, t float64) error {
	s.ensureIndex()
	j, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("fluid: server %s: force-complete: unknown job %d", s.cfg.Name, id)
	}
	s.AdvanceTo(t)
	switch j.State {
	case StateDone:
		return nil
	case StateFailed:
		return fmt.Errorf("fluid: server %s: force-complete: job %d failed", s.cfg.Name, id)
	}
	for p := task.Phase(0); p < task.NumPhases; p++ {
		j.Remaining[p] = 0
		if math.IsNaN(j.Start[p]) {
			j.Start[p] = t
		}
		if math.IsNaN(j.End[p]) {
			j.End[p] = t
		}
	}
	j.State = StateDone
	s.compactLive()
	return nil
}

// SortedIDs returns the ids of all jobs in ascending order; useful for
// deterministic iteration in reports and tests.
func (s *Sim) SortedIDs() []int {
	ids := make([]int, 0, len(s.jobs))
	for _, j := range s.jobs {
		ids = append(ids, j.ID)
	}
	sort.Ints(ids)
	return ids
}
