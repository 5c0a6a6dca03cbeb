package main

import (
	"errors"
	"fmt"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"casched"
	"casched/internal/agent"
	"casched/internal/fed"
	"casched/internal/live"
	"casched/internal/stats"
	"casched/internal/task"
)

// Dispatcher settings of the federation workload: the casfed binary's
// defaults.
const (
	fedStaleAfter      = 2 * time.Second
	fedSummaryInterval = 500 * time.Millisecond
	fedTimeout         = 2 * time.Second
)

// fedDeploy is one federation over loopback TCP, everything in this
// process: member agents, and either the dispatcher runtime clients
// talk to (server) or a dispatcher the harness drives directly over
// remote member handles (direct passes of the traced run).
type fedDeploy struct {
	wl     workload
	clock  *live.Clock
	server *fed.Server
	agents []*live.Agent
	disp   *fed.Dispatcher
	names  map[string]bool
	jobs   atomic.Int64 // next job id, shared by every caller
}

// buildFedWire starts the member agents and the dispatcher and
// registers the servers. withServer selects the full deployment (members
// join a dispatcher runtime, servers register over Agent.Register);
// otherwise the harness owns the dispatcher, built from remote handles to
// the same kind of members. A tracer wraps the members' heuristics and,
// in the direct shape, the member handles.
func buildFedWire(wl workload, tr *tracer, withServer bool) (*fedDeploy, error) {
	d := &fedDeploy{wl: wl, clock: casched.NewLiveClock(wl.ClockScale), names: map[string]bool{}}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	join := ""
	if withServer {
		fs, err := casched.StartFedServer(casched.FedServerConfig{
			Heuristic: wl.Heuristic, Seed: deploySeed, Clock: d.clock,
			StaleAfter: fedStaleAfter, SummaryInterval: fedSummaryInterval, Timeout: fedTimeout,
		})
		if err != nil {
			return nil, err
		}
		d.server, d.disp, join = fs, fs.Dispatcher(), fs.Addr()
	}
	var members []casched.FedMember
	for i := 0; i < wl.Members; i++ {
		s, err := newScheduler(wl.Heuristic, tr, i)
		if err != nil {
			return nil, err
		}
		a, err := casched.StartLiveAgent(casched.LiveAgentConfig{
			Scheduler: s, Clock: d.clock, Seed: deploySeed, Join: join, Name: fmt.Sprintf("m%d", i),
		})
		if err != nil {
			return nil, err
		}
		d.agents = append(d.agents, a)
		if !withServer {
			var m casched.FedMember = fed.NewRemote(fmt.Sprintf("m%d", i), a.Addr(), fedTimeout)
			if tr != nil {
				m = &tracedMember{Member: m, tr: tr, lane: i}
			}
			members = append(members, m)
		}
	}
	if !withServer {
		disp, err := casched.NewFederationWithMembers(casched.FederationConfig{
			Heuristic: wl.Heuristic, Seed: deploySeed,
			StaleAfter: fedStaleAfter, SummaryInterval: fedSummaryInterval,
		}, members)
		if err != nil {
			return nil, err
		}
		d.disp = disp
	}
	names := serverNames(wl.Servers)
	if withServer {
		c, err := rpc.Dial("tcp", d.server.Addr())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		for _, n := range names {
			if err := c.Call("Agent.Register", live.RegisterArgs{Name: n, Problems: []string{"synthetic"}}, &live.Ack{}); err != nil {
				return nil, fmt.Errorf("register %s: %w", n, err)
			}
		}
	} else {
		for _, n := range names {
			if err := d.disp.AddServer(n); err != nil {
				return nil, fmt.Errorf("add server %s: %w", n, err)
			}
		}
	}
	for _, n := range names {
		d.names[n] = true
	}
	d.disp.RefreshSummaries()
	ok = true
	return d, nil
}

func (d *fedDeploy) close() {
	if d.server != nil {
		d.server.Close()
	} else if d.disp != nil {
		d.disp.Close()
	}
	for _, a := range d.agents {
		a.Close()
	}
}

// cores returns the member cores (the members run in this process).
func (d *fedDeploy) cores() []*agent.Core {
	out := make([]*agent.Core, len(d.agents))
	for i, a := range d.agents {
		out[i] = a.Core()
	}
	return out
}

// checkServer reports whether a reply names a registered server that
// can run the task.
func (d *fedDeploy) checkServer(spec *task.Spec, server string) bool {
	if !d.names[server] {
		return false
	}
	_, solves := spec.Cost(server)
	return solves
}

// fedCaller is one closed-loop federation caller: over TCP through
// Agent.Schedule when c is set, else straight into the dispatcher. Its
// seeded RNG picks the task family; arrival dates come from the clock.
type fedCaller struct {
	d     *fedDeploy
	id    int
	c     *rpc.Client
	rng   *stats.RNG
	specs [3]*task.Spec
	ring  *retireRing
	tr    *tracer

	// Asynchronous TaskDone bookkeeping (TCP callers).
	doneCh      chan *rpc.Call
	outstanding int
	scheduled   int64
	completed   int64
	doneErrs    int64
}

// taskDoneWindow bounds the TaskDone calls one client leaves
// unacknowledged; the done channel holds that many replies, so the rpc
// client never has to drop one.
const taskDoneWindow = 1024

func newFedCaller(d *fedDeploy, id int, seed uint64, overTCP bool, tr *tracer) (*fedCaller, error) {
	fc := &fedCaller{d: d, id: id, rng: stats.NewRNG(seed + uint64(id)*0x9e3779b97f4a7c15),
		ring: newRetireRing(d.wl.RetireLag), tr: tr}
	for f := range fc.specs {
		fc.specs[f] = task.Synthetic(f, d.wl.Servers)
	}
	if overTCP {
		c, err := rpc.Dial("tcp", d.server.Addr())
		if err != nil {
			return nil, err
		}
		fc.c = c
		fc.doneCh = make(chan *rpc.Call, taskDoneWindow)
	}
	return fc, nil
}

// reap collects TaskDone acknowledgements: all that are ready, or, when
// block is set, until none is outstanding.
func (fc *fedCaller) reap(block bool) {
	for fc.outstanding > 0 {
		var call *rpc.Call
		if block || fc.outstanding >= taskDoneWindow {
			call = <-fc.doneCh
		} else {
			select {
			case call = <-fc.doneCh:
			default:
				return
			}
		}
		fc.outstanding--
		if call.Error != nil {
			fc.doneErrs++
		} else {
			fc.completed++
		}
	}
}

// retire tells the deployment that the task placed RetireLag decisions
// ago finished (untimed).
func (fc *fedCaller) retire(job int, server string) {
	old, ok := fc.ring.push(placed{job, server})
	if !ok {
		return
	}
	at := fc.d.clock.Now()
	if fc.c != nil {
		fc.reap(false)
		fc.c.Go("Agent.TaskDone", live.TaskDoneArgs{TaskKey: old.job, Server: old.server, At: at}, &live.Ack{}, fc.doneCh)
		fc.outstanding++
		return
	}
	if err := fc.d.disp.Complete(old.job, old.server, at); err != nil {
		fc.doneErrs++
	} else {
		fc.completed++
	}
}

// step makes one timed decision.
func (fc *fedCaller) step() (lat time.Duration, ok bool) {
	spec := fc.specs[fc.rng.Intn(len(fc.specs))]
	job := int(fc.d.jobs.Add(1) - 1)
	var server string
	var err error
	if fc.c != nil {
		args := live.ScheduleArgs{TaskKey: job, Problem: spec.Problem, Variant: spec.Variant, Arrival: fc.d.clock.Now()}
		var rep live.ScheduleReply
		t0 := time.Now()
		err = fc.c.Call("Agent.Schedule", args, &rep)
		lat = time.Since(t0)
		server = rep.Server
	} else {
		req := agent.Request{JobID: job, TaskID: job, Spec: spec, Arrival: fc.d.clock.Now()}
		sp := fc.tr.beginRoot(fc.id, spFedSubmit, int64(job), int64(job)+1)
		t0 := time.Now()
		var dec agent.Decision
		dec, err = fc.d.disp.Submit(req)
		lat = time.Since(t0)
		fc.tr.endRoot(fc.id, sp)
		server = dec.Server
	}
	if err != nil || !fc.d.checkServer(spec, server) {
		return lat, false
	}
	fc.scheduled++
	fc.retire(job, server)
	return lat, true
}

func (fc *fedCaller) caller() caller {
	return func(start time.Time, stop *atomic.Bool, limit int64, rec *sampleRec) (attempted, failed int64) {
		for calls := int64(0); !stop.Load() && (limit <= 0 || calls < limit); calls++ {
			lat, ok := fc.step()
			attempted++
			if !ok {
				failed++
				continue
			}
			rec.add(int64(time.Since(start)), int64(lat))
		}
		fc.reap(true)
		return attempted, failed
	}
}

func (fc *fedCaller) close() {
	if fc.c != nil {
		fc.reap(true)
		fc.c.Close()
	}
}

// fedRig is a federation deployment with its callers attached.
type fedRig struct {
	dep     *fedDeploy
	callers []*fedCaller
}

// buildFedRig builds the deployment, attaches the workload's callers and
// runs the warm-up decisions, split evenly between the callers.
func buildFedRig(wl workload, seed uint64, tr *tracer, withServer bool, warmup int) (*fedRig, error) {
	dep, err := buildFedWire(wl, tr, withServer)
	if err != nil {
		return nil, err
	}
	rig := &fedRig{dep: dep}
	for i := 0; i < wl.Callers; i++ {
		fc, err := newFedCaller(dep, i, seed, withServer, tr)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.callers = append(rig.callers, fc)
	}
	var wg sync.WaitGroup
	var failed atomic.Int64
	for _, fc := range rig.callers {
		wg.Add(1)
		go func(fc *fedCaller) {
			defer wg.Done()
			for i := 0; i < warmup/len(rig.callers); i++ {
				if _, ok := fc.step(); !ok {
					failed.Add(1)
				}
			}
			fc.reap(true)
		}(fc)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		rig.close()
		return nil, fmt.Errorf("%s: %d warm-up decisions failed", wl.Name, n)
	}
	return rig, nil
}

func (r *fedRig) callerFuncs() []caller {
	out := make([]caller, len(r.callers))
	for i, fc := range r.callers {
		out[i] = fc.caller()
	}
	return out
}

func (r *fedRig) close() {
	for _, fc := range r.callers {
		fc.close()
	}
	r.dep.close()
}

// checkInFlight verifies the dispatcher's own accounting against the
// callers': jobs it holds as in flight must be exactly those scheduled
// and not yet reported done.
func (r *fedRig) checkInFlight() error {
	var scheduled, completed, doneErrs int64
	for _, fc := range r.callers {
		fc.reap(true)
		scheduled += fc.scheduled
		completed += fc.completed
		doneErrs += fc.doneErrs
	}
	if doneErrs > 0 {
		return fmt.Errorf("%d completion messages failed", doneErrs)
	}
	if got, want := int64(r.dep.disp.InFlight()), scheduled-completed; got != want {
		return fmt.Errorf("dispatcher holds %d jobs in flight, callers scheduled %d and completed %d (want %d)",
			got, scheduled, completed, want)
	}
	return nil
}

// openLoop is the outcome of the open-loop pass.
type openLoop struct {
	Sent      int     `json:"sent"`
	Failed    int     `json:"failed"`
	RatePerS  float64 `json:"rate_per_s"`
	P50US     float64 `json:"p50_us"`
	P99US     float64 `json:"p99_us"`
	LateMaxUS float64 `json:"late_max_us"`
}

// runOpenLoop sends Agent.Schedule on a seeded Poisson schedule at rate
// requests per second for d, over the rig's connections in turn and
// without waiting for replies. A request's latency runs from the instant
// it was due, so a stall also delays the requests queued behind it; how
// late the generator itself ran is reported beside it.
func (r *fedRig) runOpenLoop(seed uint64, rate float64, d time.Duration) (openLoop, error) {
	n := int(rate * d.Seconds())
	if n < 1 {
		return openLoop{}, errors.New("open loop: window too short")
	}
	rng := stats.NewRNG(seed ^ 0x6f70656e)
	due := make([]int64, n)
	args := make([]live.ScheduleArgs, n)
	replies := make([]live.ScheduleReply, n)
	lat := make([]float64, n)
	specs := r.callers[0].specs
	base := int(r.dep.jobs.Add(int64(n)) - int64(n))
	at := 0.0
	for i := range due {
		at += rng.Exp(1 / rate)
		due[i] = int64(at * 1e9)
		spec := specs[rng.Intn(len(specs))]
		args[i] = live.ScheduleArgs{TaskKey: base + i, Problem: spec.Problem, Variant: spec.Variant}
	}
	done := make(chan *rpc.Call, n) // one slot per request: replies are never dropped
	res := openLoop{Sent: n, RatePerS: rate}
	start := time.Now()
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for k := 0; k < n; k++ {
			call := <-done
			i := call.Args.(live.ScheduleArgs).TaskKey - base
			lat[i] = float64(int64(time.Since(start))-due[i]) / 1e3
			rep := call.Reply.(*live.ScheduleReply)
			if call.Error != nil || !r.dep.names[rep.Server] {
				res.Failed++
				continue
			}
			// Retire at once: the pass measures latency under a fixed
			// rate, not occupancy.
			fc := r.callers[i%len(r.callers)]
			fc.c.Go("Agent.TaskDone", live.TaskDoneArgs{TaskKey: base + i, Server: rep.Server, At: r.dep.clock.Now()}, &live.Ack{}, nil)
		}
	}()
	var lateMax int64
	for i := range due {
		if wait := time.Duration(due[i]) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if late := int64(time.Since(start)) - due[i]; late > lateMax {
			lateMax = late
		}
		args[i].Arrival = r.dep.clock.Now()
		r.callers[i%len(r.callers)].c.Go("Agent.Schedule", args[i], &replies[i], done)
	}
	<-collected
	res.P50US = percentile(lat, 0.5)
	res.P99US = percentile(lat, 0.99)
	res.LateMaxUS = float64(lateMax) / 1e3
	return res, nil
}
