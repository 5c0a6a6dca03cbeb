// Package grid is the discrete-event simulator of the client-agent-
// server environment: a NetSolve-like middleware in which an agent
// receives a metatask's requests over time and maps each task, on
// arrival, to one of a set of time-shared servers.
//
// The simulator reproduces the pieces of NetSolve the paper's
// evaluation depends on:
//
//   - time-shared servers executing tasks under the fluid model
//     (internal/fluid), with optional memory accounting: thrashing and
//     collapse under overload (§5.1);
//   - monitors: each server periodically reports its load to the agent,
//     and the agent applies NetSolve's two load-correction mechanisms
//     (increment the belief when assigning a task before the next
//     report; decrement it on the completion message a server sends
//     when a task finishes) — this is the information MCT consumes;
//   - the HTM (internal/htm) fed with nominal task costs, while the
//     execution layer runs with seeded noise-perturbed costs, so
//     predictions face the error regime measured in Table 1;
//   - NetSolve's fault tolerance: tasks lost in a server collapse are
//     resubmitted to the agent after a detection delay.
package grid

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"casched/internal/agent"
	"casched/internal/fluid"
	"casched/internal/metrics"
	"casched/internal/platform"
	"casched/internal/sched"
	"casched/internal/stats"
	"casched/internal/task"
	"casched/internal/trace"
)

// attemptStride separates job ids of successive fault-tolerance
// attempts of the same task inside the fluid simulations and the HTM.
const attemptStride = 1_000_000

// ServerConfig describes one server of the simulated testbed.
type ServerConfig struct {
	// Name is the server (machine) name; task costs are looked up
	// under this name.
	Name string
	// RAMMB and SwapMB are the memory capacities, used only when the
	// run's memory model is enabled. Zero RAM means unlimited.
	RAMMB  float64
	SwapMB float64
}

// Config parameterizes one simulated experiment run.
type Config struct {
	// Servers is the testbed.
	Servers []ServerConfig
	// Scheduler is the heuristic under test.
	Scheduler sched.Scheduler
	// Seed drives all randomness (execution noise, random heuristics).
	Seed uint64
	// NoiseSigma is the relative execution-noise standard deviation
	// applied to every phase cost (0.03 reproduces Table 1's regime;
	// 0 makes execution match the HTM exactly).
	NoiseSigma float64
	// MonitorPeriod is the load-report period in seconds for the
	// monitor-based information model (default 30 when zero).
	MonitorPeriod float64
	// MonitorTau is the time constant, in seconds, of the Unix-style
	// load-average smoothing applied to the values servers report
	// (default 60 when zero; negative disables smoothing and reports
	// the instantaneous run-queue length). The lag this introduces is
	// the information inaccuracy plain MCT suffers from.
	MonitorTau float64
	// MemoryModel enables memory accounting (thrash + collapse) in the
	// execution layer.
	MemoryModel bool
	// FaultTolerance enables NetSolve-style resubmission of tasks lost
	// in a collapse.
	FaultTolerance bool
	// ResubmitDelay is the failure-detection delay before a lost task
	// re-enters the agent's queue (default 30 when zero).
	ResubmitDelay float64
	// MaxAttempts bounds scheduling attempts per task (default 5 when
	// zero).
	MaxAttempts int
	// HTMSync enables the HTM↔execution synchronization extension.
	HTMSync bool
	// HTMMemory makes the HTM model memory too (the §7 extension).
	HTMMemory bool
	// Log, when non-nil, receives execution events.
	Log *trace.Log
	// Failures injects server crashes at fixed dates, independently of
	// the memory model — the fault-injection hook for testing the
	// agent's behaviour under server loss.
	Failures []ServerFailure
}

// ServerFailure is one injected crash.
type ServerFailure struct {
	// Server names the machine to kill.
	Server string
	// At is the crash date in seconds.
	At float64
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.MonitorPeriod == 0 {
		c.MonitorPeriod = 30
	}
	if c.MonitorTau == 0 {
		c.MonitorTau = 60
	}
	if c.ResubmitDelay == 0 {
		c.ResubmitDelay = 30
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 5
	}
	return c
}

// Collapse records one server collapse.
type Collapse struct {
	Server string
	Time   float64
	Lost   int // tasks resident when the server died
}

// Result is the outcome of one run.
type Result struct {
	// Heuristic is the scheduler's name.
	Heuristic string
	// Tasks holds one entry per metatask task, indexed by task ID.
	Tasks []metrics.TaskResult
	// Predicted maps task IDs to the HTM's predicted completion at
	// (last) placement time; present only for HTM-based heuristics.
	Predicted map[int]float64
	// FinalPredicted maps task IDs to the HTM's end-of-run simulated
	// completion date — the "simulated completion date" column of the
	// paper's Table 1, which accounts for every task placed after this
	// one. Present only for HTM-based heuristics.
	FinalPredicted map[int]float64
	// Collapses lists server collapses in time order.
	Collapses []Collapse
	// FailedTasks lists the IDs of tasks that never completed.
	FailedTasks []int
	// ServerStats maps server names to their load-balance statistics.
	ServerStats map[string]ServerStats
	// ExecSims exposes the final execution-layer fluid simulations per
	// server (read-only use expected): the ground-truth schedules, from
	// which Gantt charts of the run can be extracted.
	ExecSims map[string]*fluid.Sim
}

// ServerStats is the per-server load-balance view of a run.
type ServerStats struct {
	// Completed counts tasks the server finished.
	Completed int
	// BusyCPU is the cumulative seconds the CPU was busy.
	BusyCPU float64
	// Utilization is BusyCPU over the server's active lifetime.
	Utilization float64
	// PeakMemoryTasks is the largest number of simultaneously resident
	// tasks observed at scheduling instants.
	PeakMemoryTasks int
}

// Report aggregates the run's metrics.
func (r *Result) Report() metrics.Report {
	return metrics.Compute(r.Heuristic, r.Tasks)
}

// pendingArrival is a task (re)submission awaiting scheduling.
type pendingArrival struct {
	at      float64
	taskIdx int
	attempt int
	seq     int // tie-break for deterministic ordering
}

type arrivalHeap []pendingArrival

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h arrivalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x any)   { *h = append(*h, x.(pendingArrival)) }
func (h *arrivalHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h arrivalHeap) peek() float64 { return h[0].at }

// sim is the run state: the execution layer (noise-perturbed fluid
// servers, monitors, fault injection) driving the shared agent core,
// which owns beliefs, heuristic invocation and the HTM.
type sim struct {
	cfg   Config
	mt    *task.Metatask
	core  *agent.Core
	noise *stats.RNG
	exec  map[string]*fluid.Sim
	order []string // server names, sorted
	alive map[string]bool
	// ewma is each monitor's server-side Unix-style smoothed load
	// average — monitor state, not agent belief, so it lives with the
	// execution layer.
	ewma map[string]float64

	now        float64
	nextReport float64
	pending    arrivalHeap
	seq        int
	failures   []ServerFailure // sorted by time, consumed from index 0
	peak       map[string]int  // peak resident tasks per server

	// job bookkeeping
	jobTask    map[int]int // jobID -> task index
	jobAttempt map[int]int
	results    []metrics.TaskResult
	predicted  map[int]float64
	collapses  []Collapse
}

// Run executes the metatask under the configuration and returns the
// per-task results.
func Run(cfg Config, mt *task.Metatask) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("grid: no scheduler configured")
	}
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("grid: no servers configured")
	}
	if err := mt.Validate(); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}

	s := &sim{
		cfg:        cfg,
		mt:         mt,
		exec:       make(map[string]*fluid.Sim, len(cfg.Servers)),
		alive:      make(map[string]bool, len(cfg.Servers)),
		ewma:       make(map[string]float64, len(cfg.Servers)),
		jobTask:    make(map[int]int),
		jobAttempt: make(map[int]int),
		results:    make([]metrics.TaskResult, mt.Len()),
		predicted:  make(map[int]float64),
		nextReport: cfg.MonitorPeriod,
		peak:       make(map[string]int),
	}
	s.failures = append(s.failures, cfg.Failures...)
	sort.Slice(s.failures, func(i, j int) bool { return s.failures[i].At < s.failures[j].At })
	root := stats.NewRNG(cfg.Seed)
	decisionRNG := root.Split()
	s.noise = root.Split()

	core, err := agent.New(agent.Config{
		Scheduler: cfg.Scheduler,
		RNG:       decisionRNG,
		HTMSync:   cfg.HTMSync,
		HTMMemory: cfg.HTMMemory,
		Log:       cfg.Log,
	})
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	s.core = core

	names := make([]string, 0, len(cfg.Servers))
	for _, sc := range cfg.Servers {
		if _, dup := s.exec[sc.Name]; dup {
			return nil, fmt.Errorf("grid: duplicate server %q", sc.Name)
		}
		fc := fluid.Config{Name: sc.Name}
		if cfg.MemoryModel {
			fc.RAMMB = sc.RAMMB
			fc.SwapMB = sc.SwapMB
			fc.Thrash = true
		}
		s.exec[sc.Name] = fluid.New(fc)
		s.alive[sc.Name] = true
		s.core.AddServer(sc.Name)
		names = append(names, sc.Name)
	}
	sort.Strings(names)
	s.order = names

	for i, t := range mt.Tasks {
		s.results[i] = metrics.TaskResult{ID: t.ID, Arrival: t.Arrival}
		heap.Push(&s.pending, pendingArrival{at: t.Arrival, taskIdx: i, seq: s.seq})
		s.seq++
	}

	if err := s.run(); err != nil {
		return nil, err
	}

	res := &Result{
		Heuristic:   cfg.Scheduler.Name(),
		Tasks:       s.results,
		Collapses:   s.collapses,
		ServerStats: make(map[string]ServerStats, len(s.order)),
		ExecSims:    s.exec,
	}
	completedOn := make(map[string]int)
	for _, r := range s.results {
		if r.Completed {
			completedOn[r.Server]++
		}
	}
	for _, name := range s.order {
		exec := s.exec[name]
		res.ServerStats[name] = ServerStats{
			Completed:       completedOn[name],
			BusyCPU:         exec.BusyTime(task.PhaseCompute),
			Utilization:     exec.Utilization(),
			PeakMemoryTasks: s.peak[name],
		}
	}
	if s.core.UsesHTM() {
		res.Predicted = s.predicted
		res.FinalPredicted = make(map[int]float64)
		bestAttempt := make(map[int]int)
		for jobID, idx := range s.jobTask {
			c, ok := s.core.PredictedCompletion(jobID)
			if !ok {
				continue
			}
			id := s.mt.Tasks[idx].ID
			attempt := s.jobAttempt[jobID]
			// Keep the projection of the latest scheduling attempt.
			if prev, seen := bestAttempt[id]; !seen || attempt > prev {
				bestAttempt[id] = attempt
				res.FinalPredicted[id] = c
			}
		}
	}
	for i := range s.results {
		if !s.results[i].Completed {
			res.FailedTasks = append(res.FailedTasks, s.results[i].ID)
		}
	}
	return res, nil
}

// run is the main event loop: repeatedly step to the earliest pending
// event (arrival, server phase event, or monitor report) and handle it.
func (s *sim) run() error {
	for {
		tArr := math.Inf(1)
		if s.pending.Len() > 0 {
			tArr = s.pending.peek()
		}
		tSrv := math.Inf(1)
		for _, name := range s.order {
			if !s.alive[name] {
				continue
			}
			if t, ok := s.exec[name].NextEventTime(); ok && t < tSrv {
				tSrv = t
			}
		}
		if math.IsInf(tArr, 1) && math.IsInf(tSrv, 1) {
			return nil // all work drained
		}
		t := math.Min(tArr, tSrv)

		// Injected failures due before the next work event fire first.
		if len(s.failures) > 0 && s.failures[0].At <= t {
			f := s.failures[0]
			s.failures = s.failures[1:]
			s.advanceAll(f.At)
			s.now = f.At
			if s.alive[f.Server] {
				events := s.exec[f.Server].Kill(f.At)
				s.processEvents(f.Server, events)
			}
			continue
		}

		// Monitor reports due before the next work event fire first.
		if s.nextReport <= t {
			s.advanceAll(s.nextReport)
			s.now = s.nextReport
			s.refreshReports()
			s.nextReport += s.cfg.MonitorPeriod
			continue
		}

		s.advanceAll(t)
		s.now = t

		// Schedule every arrival due at t.
		for s.pending.Len() > 0 && s.pending.peek() <= t {
			pa := heap.Pop(&s.pending).(pendingArrival)
			if err := s.schedule(pa); err != nil {
				return err
			}
		}
	}
}

// advanceAll advances every live server to time t and processes the
// emitted events.
func (s *sim) advanceAll(t float64) {
	for _, name := range s.order {
		if !s.alive[name] {
			continue
		}
		events := s.exec[name].AdvanceTo(t)
		s.processEvents(name, events)
	}
}

// processEvents handles completion, failure and collapse events from
// one server.
func (s *sim) processEvents(server string, events []fluid.Event) {
	lost := 0
	collapsed := false
	var collapseAt float64
	for _, ev := range events {
		switch ev.Kind {
		case fluid.EventDone:
			s.onDone(server, ev)
		case fluid.EventFailed:
			lost++
			s.onFailed(server, ev)
		case fluid.EventCollapse:
			collapsed = true
			collapseAt = ev.Time
		}
	}
	if collapsed {
		s.onCollapse(server, collapseAt, lost)
	}
}

// onDone records a task completion and relays the completion message
// to the agent core (load correction, HTM re-anchor, "done" record).
func (s *sim) onDone(server string, ev fluid.Event) {
	idx, ok := s.jobTask[ev.JobID]
	if !ok {
		return
	}
	r := &s.results[idx]
	r.Completed = true
	r.Completion = ev.Time
	r.Server = server
	if cost, ok := s.mt.Tasks[idx].Spec.Cost(server); ok {
		r.UnloadedDuration = cost.Total()
	}
	s.core.Complete(ev.JobID, server, ev.Time)
}

// onFailed queues a resubmission for a task lost in a collapse.
func (s *sim) onFailed(server string, ev fluid.Event) {
	idx, ok := s.jobTask[ev.JobID]
	if !ok {
		return
	}
	attempt := s.jobAttempt[ev.JobID]
	s.log(trace.Record{Time: ev.Time, Kind: "lost", Server: server,
		TaskID: s.mt.Tasks[idx].ID, Attempt: attempt})
	if !s.cfg.FaultTolerance || attempt+1 >= s.cfg.MaxAttempts {
		return // task stays incomplete
	}
	s.results[idx].Resubmissions++
	heap.Push(&s.pending, pendingArrival{
		at:      ev.Time + s.cfg.ResubmitDelay,
		taskIdx: idx,
		attempt: attempt + 1,
		seq:     s.seq,
	})
	s.seq++
	s.log(trace.Record{Time: ev.Time + s.cfg.ResubmitDelay, Kind: "resubmit",
		Server: "", TaskID: s.mt.Tasks[idx].ID, Attempt: attempt + 1})
}

// onCollapse removes a dead server from the candidate pool.
func (s *sim) onCollapse(server string, t float64, lost int) {
	if !s.alive[server] {
		return
	}
	s.alive[server] = false
	s.collapses = append(s.collapses, Collapse{Server: server, Time: t, Lost: lost})
	s.core.RemoveServer(server)
	s.log(trace.Record{Time: t, Kind: "collapse", Server: server, TaskID: -1,
		Note: fmt.Sprintf("lost=%d", lost)})
}

// refreshReports delivers periodic monitor reports to the agent core:
// each live server's monitor smooths its run-queue length and reports
// it, replacing the core's belief and resetting the corrections.
func (s *sim) refreshReports() {
	// Unix-style smoothing: the reported value is an exponentially
	// weighted moving average of the run-queue length, so the agent's
	// picture lags behind load spikes by roughly MonitorTau seconds.
	decay := 0.0
	if s.cfg.MonitorTau > 0 {
		decay = math.Exp(-s.cfg.MonitorPeriod / s.cfg.MonitorTau)
	}
	for _, name := range s.order {
		if !s.alive[name] {
			continue
		}
		inst := s.exec[name].LoadAvg()
		s.ewma[name] = s.ewma[name]*decay + inst*(1-decay)
		s.core.Report(name, s.ewma[name], s.now)
	}
}

// schedule maps one (re)submitted task through the agent core — which
// runs the heuristic and commits the decision — then mirrors the
// placement into the noise-perturbed execution layer.
func (s *sim) schedule(pa pendingArrival) error {
	t := s.mt.Tasks[pa.taskIdx]
	now := pa.at
	if now < s.now {
		// A resubmission queued behind an already-processed instant is
		// scheduled at the current simulation time.
		now = s.now
	}
	jobID := pa.attempt*attemptStride + t.ID

	s.log(trace.Record{Time: now, Kind: "arrival", TaskID: t.ID, Attempt: pa.attempt})
	dec, err := s.core.Submit(agent.Request{
		JobID:     jobID,
		TaskID:    t.ID,
		Attempt:   pa.attempt,
		Spec:      t.Spec,
		Arrival:   now,
		Submitted: t.Arrival,
		Tenant:    t.Tenant,
		Deadline:  t.Deadline,
	})
	if errors.Is(err, agent.ErrUnschedulable) {
		s.log(trace.Record{Time: now, Kind: "unschedulable", TaskID: t.ID, Attempt: pa.attempt})
		return nil
	}
	if errors.Is(err, agent.ErrDeadlineUnmet) || errors.Is(err, agent.ErrThrottled) {
		// The intake path shed the task; it simply never executes.
		s.log(trace.Record{Time: now, Kind: "shed", TaskID: t.ID, Attempt: pa.attempt})
		return nil
	}
	if err != nil {
		return fmt.Errorf("grid: %w", err)
	}
	server := dec.Server
	if dec.HasPrediction {
		s.predicted[t.ID] = dec.Predicted
	}

	nominal, _ := t.Spec.Cost(server)
	actual := task.Cost{
		Input:   nominal.Input * s.noise.NoiseFactor(s.cfg.NoiseSigma),
		Compute: nominal.Compute * s.noise.NoiseFactor(s.cfg.NoiseSigma),
		Output:  nominal.Output * s.noise.NoiseFactor(s.cfg.NoiseSigma),
	}
	if err := s.exec[server].Add(jobID, now, actual, t.Spec.MemoryMB); err != nil {
		return fmt.Errorf("grid: placing task %d on %q: %w", t.ID, server, err)
	}
	s.jobTask[jobID] = pa.taskIdx
	s.jobAttempt[jobID] = pa.attempt

	// Settle the placement: the job activates now, which may trigger an
	// immediate memory collapse.
	events := s.exec[server].AdvanceTo(now)
	s.processEvents(server, events)
	if n := s.exec[server].ActiveCount(); n > s.peak[server] {
		s.peak[server] = n
	}
	return nil
}

// log appends to the configured trace log, if any.
func (s *sim) log(r trace.Record) {
	if s.cfg.Log != nil {
		s.cfg.Log.Add(r)
	}
}

// ServersFor builds ServerConfigs for the named testbed machines,
// picking up the Table 2 memory capacities from internal/platform.
func ServersFor(names []string) ([]ServerConfig, error) {
	machines, err := platform.Servers(names)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	out := make([]ServerConfig, 0, len(machines))
	for _, m := range machines {
		out = append(out, ServerConfig{Name: m.Name, RAMMB: m.MemoryMB, SwapMB: m.SwapMB})
	}
	return out, nil
}
