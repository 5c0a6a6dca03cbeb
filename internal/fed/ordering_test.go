package fed

// The released dispatch lock: a fan-out's ordering point is the start
// of its commit, not the commit's answer (package doc, "Ordering").
// These tests pin what that must not change — concurrent submissions
// over real TCP members decide exactly like the same requests one at a
// time in ordering-point order, members serve a commit before any later
// decision's evaluation — and what the failure paths do once the lock
// has been away: same-fan-out fallback, re-fan-out, uncertain commits,
// handles swapped by a rejoin.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/live"
	"casched/internal/sched"
	"casched/internal/stats"
	"casched/internal/task"
)

// orderProbe wraps a member and watches the dispatcher from the
// transport seam: the order in which decisions pass their ordering
// point (StartCommit runs under the dispatch lock, so the order is
// total), and whether a decision ever fans out before another one's
// wait has returned — which it cannot while the dispatch lock is held
// across the wait.
type orderProbe struct {
	Member
	shared *probeLog
}

type probeLog struct {
	mu       sync.Mutex
	order    []int // job ids in ordering-point order
	awaiting atomic.Int32
	overlaps atomic.Int32 // evaluations issued before a started commit's wait returned
}

func (p *orderProbe) Evaluate(req agent.Request) (agent.Candidate, error) {
	if p.shared.awaiting.Load() > 0 {
		p.shared.overlaps.Add(1)
	}
	return p.Member.Evaluate(req)
}

func (p *orderProbe) StartCommit(req agent.Request, server string) cluster.PendingCommit {
	p.shared.mu.Lock()
	p.shared.order = append(p.shared.order, req.JobID)
	p.shared.mu.Unlock()
	p.shared.awaiting.Add(1)
	pending := cluster.StartCommit(p.Member, req, server)
	return waitFunc(func() (agent.Decision, error) {
		defer p.shared.awaiting.Add(-1)
		return pending.Wait()
	})
}

// waitFunc is a test member's started commit: the function Wait calls.
type waitFunc func() (agent.Decision, error)

func (f waitFunc) Wait() (agent.Decision, error) { return f() }

// servedLog is what one member's core saw, in the order it served it.
type servedLog struct {
	mu      sync.Mutex
	entries []servedAt
}

type served struct {
	commit bool
	job    int
	server string
}

// servedAt stamps a served call with the wall-clock interval the core
// spent on it (evaluations: the instant the heuristic was entered).
type servedAt struct {
	served
	begin, end time.Time
}

func (l *servedLog) add(e served, begin, end time.Time) {
	l.mu.Lock()
	l.entries = append(l.entries, servedAt{e, begin, end})
	l.mu.Unlock()
}

// loggingHMCT is HMCT that reports each evaluation it serves.
type loggingHMCT struct {
	*sched.HMCT
	log *servedLog
}

func (h *loggingHMCT) ChooseScored(ctx *sched.Context) (sched.Choice, error) {
	now := time.Now()
	h.log.add(served{job: ctx.JobID}, now, now)
	return h.HMCT.ChooseScored(ctx)
}

func (h *loggingHMCT) Choose(ctx *sched.Context) (string, error) {
	c, err := h.ChooseScored(ctx)
	return c.Server, err
}

// tcpDeploy is a dispatcher over real live agents on loopback, each
// reached through a Remote handle behind an orderProbe.
type tcpDeploy struct {
	d       *Dispatcher
	logs    []*servedLog
	probe   *probeLog
	remotes []*Remote
	taps    []*wireTap   // with tapped: what each Remote wrote, in order
	hold    atomic.Int64 // nanoseconds each commit's answer is held back
}

// newTCPDeploy starts nMembers live agents and a dispatcher over them,
// with nServers synthetic servers ("sv00"…) partitioned by the default
// hash policy — the same partition on every call. commitDelay holds
// each commit's answer back member-side (the core's event callback runs
// inside Commit). Summaries are fetched once and never go stale, so
// every submission takes the fan-out path. With tapped, each Remote
// reaches its member through a wireTap.
func newTCPDeploy(t *testing.T, nMembers, nServers int, tapped bool, commitDelay time.Duration) *tcpDeploy {
	t.Helper()
	now := time.Unix(1000, 0)
	dep := &tcpDeploy{probe: &probeLog{}}
	dep.hold.Store(int64(commitDelay))
	members := make([]Member, nMembers)
	for i := range members {
		log := &servedLog{}
		a, err := live.StartAgent(live.AgentConfig{
			Scheduler: &loggingHMCT{HMCT: sched.NewHMCT(), log: log}, Clock: live.NewClock(0), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		a.Core().Subscribe(func(ev agent.Event) {
			if ev.Kind != agent.EventDecision {
				return
			}
			begin := time.Now()
			time.Sleep(time.Duration(dep.hold.Load()))
			log.add(served{commit: true, job: ev.JobID, server: ev.Server}, begin, time.Now())
		})
		addr := a.Addr()
		if tapped {
			tap := newWireTap(t, addr)
			dep.taps = append(dep.taps, tap)
			addr = tap.Addr()
		}
		r := NewRemote(fmt.Sprintf("m%d", i), addr, 10*time.Second)
		dep.remotes = append(dep.remotes, r)
		members[i] = &orderProbe{Member: r, shared: dep.probe}
		dep.logs = append(dep.logs, log)
	}
	d, err := NewWithMembers(Config{
		Heuristic:       "HMCT",
		Seed:            7,
		StaleAfter:      time.Hour,
		SummaryInterval: time.Hour,
		Now:             func() time.Time { return now },
	}, members)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	for i := 0; i < nServers; i++ {
		if err := d.AddServer(fmt.Sprintf("sv%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	d.RefreshSummaries()
	dep.d = d
	return dep
}

// commits returns one member's commit sequence.
func (l *servedLog) commits() []served {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []served
	for _, e := range l.entries {
		if e.commit {
			out = append(out, e.served)
		}
	}
	return out
}

// submitAll drives reqs through the dispatcher from the given number of
// concurrent submitters (submitter s takes every s-th request) and
// returns job -> server.
func (dep *tcpDeploy) submitAll(t *testing.T, reqs []agent.Request, submitters int) map[int]string {
	t.Helper()
	placed := make([]string, len(reqs))
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(reqs); i += submitters {
				dec, err := dep.d.Submit(reqs[i])
				if err != nil {
					t.Errorf("submit job %d: %v", reqs[i].JobID, err)
					return
				}
				placed[i] = dec.Server
			}
		}(s)
	}
	wg.Wait()
	out := make(map[int]string, len(reqs))
	for i, r := range reqs {
		out[r.JobID] = placed[i]
	}
	return out
}

// TestFanoutLinearizable is the differential for the released lock:
// eight submitters drive a few thousand decisions of three task
// families through four real TCP members; the same requests, replayed
// one at a time in the order the concurrent run passed its ordering
// points over a fresh deployment, must give every job the same server
// and every member the same commit sequence.
func TestFanoutLinearizable(t *testing.T) {
	const (
		nMembers, nServers = 4, 32
		nJobs, submitters  = 2000, 8
	)
	rng := stats.NewRNG(0x11ea)
	reqs := make([]agent.Request, nJobs)
	at := 0.0
	for i := range reqs {
		at += rng.Exp(4)
		reqs[i] = req(i, task.Synthetic(rng.Intn(3), nServers), at)
	}

	conc := newTCPDeploy(t, nMembers, nServers, false, 0)
	got := conc.submitAll(t, reqs, submitters)
	if t.Failed() {
		return
	}
	order := conc.probe.order
	if len(order) != nJobs {
		t.Fatalf("%d decisions passed the ordering point, want %d", len(order), nJobs)
	}
	if conc.probe.overlaps.Load() == 0 {
		t.Error("no fan-out overlapped a commit round trip: the run was serial and proves nothing")
	}

	replay := make([]agent.Request, nJobs)
	for k, job := range order {
		replay[k] = reqs[job] // job ids are request positions
	}
	seq := newTCPDeploy(t, nMembers, nServers, false, 0)
	want := seq.submitAll(t, replay, 1)
	if !slices.Equal(seq.probe.order, order) {
		t.Fatal("the single-caller replay did not decide in the order it was given")
	}
	for job, server := range want {
		if got[job] != server {
			t.Fatalf("job %d: concurrent run placed it on %q, the ordered replay on %q", job, got[job], server)
		}
	}
	for m := range conc.logs {
		if c, s := conc.logs[m].commits(), seq.logs[m].commits(); !slices.Equal(c, s) {
			t.Fatalf("member %d committed %d jobs in the concurrent run and %d in the replay, or in another order", m, len(c), len(s))
		}
	}
}

// TestCommitServedBeforeLaterEvaluate checks the member side of the
// ordering argument with commit answers held back: whatever overlaps
// dispatcher-side, a member serves a decision's commit before it serves
// the evaluation of any decision that passed the ordering point later,
// and the overlap must actually happen (the lock is released while the
// answer is awaited). The same order holds across call types: a
// RemoveServer written while a commit's answer is held is served after
// that commit and before an Evaluate written after it.
func TestCommitServedBeforeLaterEvaluate(t *testing.T) {
	t.Run("framed", func(t *testing.T) {
		const nJobs = 160
		dep := newTCPDeploy(t, 2, 8, true, 2*time.Millisecond)
		reqs := make([]agent.Request, nJobs)
		for i := range reqs {
			reqs[i] = req(i, task.Synthetic(i%3, 8), float64(i))
		}
		dep.submitAll(t, reqs, 4)
		if t.Failed() {
			return
		}
		// An evaluation served by one member while another member is
		// inside a commit belongs to a second decision in flight.
		overlaps := 0
		for m, log := range dep.logs {
			for _, c := range log.entries {
				if !c.commit {
					continue
				}
				for o, other := range dep.logs {
					for _, e := range other.entries {
						if o != m && !e.commit && e.begin.After(c.begin) && e.begin.Before(c.end) {
							overlaps++
						}
					}
				}
			}
		}
		if overlaps == 0 {
			t.Error("no evaluation overlapped a held commit: the dispatch lock was not released")
		}
		pos := make(map[int]int, nJobs)
		for k, job := range dep.probe.order {
			pos[job] = k
		}
		for m, log := range dep.logs {
			var committed []int // ordering positions of this member's commits
			for _, e := range log.commits() {
				committed = append(committed, pos[e.job])
			}
			seen := 0
			for _, e := range log.entries {
				if e.commit {
					seen++
					continue
				}
				// Every commit of this member ordered before the job
				// must have been served already.
				due := 0
				for _, p := range committed {
					if p < pos[e.job] {
						due++
					}
				}
				if seen < due {
					t.Fatalf("member %d evaluated job %d (ordering position %d) with %d of %d earlier commits served",
						m, e.job, pos[e.job], seen, due)
				}
			}
		}

		// Membership rides the same connection. only00 runs on sv00 and
		// nowhere else: commit a job there with the answer held, write
		// RemoveServer(sv00) behind it, and once the tap has seen that
		// frame go out write an Evaluate. Served in the order written,
		// the commit still finds sv00, and the evaluation no longer does.
		only00 := task.Synthetic(0, 1)
		home, ok := dep.d.MemberOf("sv00")
		if !ok {
			t.Fatal("sv00 has no home member")
		}
		r, tap := dep.remotes[home], dep.taps[home]
		if cand, err := r.Evaluate(req(1000, only00, 200)); err != nil || cand.Server != "sv00" {
			t.Fatalf("before the removal: %+v, %v; want sv00", cand, err)
		}
		dep.hold.Store(int64(150 * time.Millisecond))
		wait := r.StartCommit(req(1000, only00, 200), "sv00")
		written := tap.expect(0x0A) // RemoveServer, frame.go's message table
		removed := make(chan error, 1)
		go func() { removed <- r.RemoveServer("sv00") }()
		<-written
		if cand, err := r.Evaluate(req(1001, only00, 201)); !errors.Is(err, agent.ErrUnschedulable) {
			t.Errorf("an Evaluate written after RemoveServer(sv00) answered %+v, %v; want unschedulable", cand, err)
		}
		if err := <-removed; err != nil {
			t.Errorf("RemoveServer: %v", err)
		}
		if dec, err := wait.Wait(); err != nil || dec.Server != "sv00" {
			t.Errorf("the commit written before RemoveServer(sv00): %+v, %v; want it placed on sv00", dec, err)
		}
	})
}

// heldMember is an in-process member behind a scripted ordered
// transport. A commit takes effect when it is started — before any
// later call, as on the framed wire — and the script decides what the
// answer is and when it arrives: gate, while non-nil, holds the answer
// of the commits (and completions) started meanwhile until it is
// closed; fault, while non-nil, makes them fail without committing.
type heldMember struct {
	*InProcess
	mu      sync.Mutex
	gate    chan struct{}
	fault   error
	evals   int
	placed  map[int][]string // job -> servers its core committed it on
	started chan int         // job ids, as their commit (or completion) starts
}

func newHeldMember(t *testing.T, name string) *heldMember {
	t.Helper()
	core, err := agent.New(agent.Config{Scheduler: sched.NewHMCT(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := &heldMember{InProcess: NewInProcess(name, core), placed: make(map[int][]string), started: make(chan int, 16)}
	core.Subscribe(func(ev agent.Event) {
		if ev.Kind == agent.EventDecision {
			h.mu.Lock()
			h.placed[ev.JobID] = append(h.placed[ev.JobID], ev.Server)
			h.mu.Unlock()
		}
	})
	return h
}

func (h *heldMember) script(gate chan struct{}, fault error) {
	h.mu.Lock()
	h.gate, h.fault = gate, fault
	h.mu.Unlock()
}

func (h *heldMember) Evaluate(req agent.Request) (agent.Candidate, error) {
	h.mu.Lock()
	h.evals++
	h.mu.Unlock()
	return h.InProcess.Evaluate(req)
}

func (h *heldMember) evaluations() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.evals
}

func (h *heldMember) StartCommit(req agent.Request, server string) cluster.PendingCommit {
	h.mu.Lock()
	gate, err := h.gate, h.fault
	h.mu.Unlock()
	var dec agent.Decision
	if err == nil {
		dec, err = h.InProcess.Commit(req, server)
	}
	h.started <- req.JobID
	return waitFunc(func() (agent.Decision, error) {
		if gate != nil {
			<-gate
		}
		return dec, err
	})
}

func (h *heldMember) Commit(req agent.Request, server string) (agent.Decision, error) {
	return h.StartCommit(req, server).Wait()
}

func (h *heldMember) Complete(jobID int, server string, at float64) error {
	h.mu.Lock()
	gate, err := h.gate, h.fault
	h.mu.Unlock()
	h.started <- jobID
	if gate != nil {
		<-gate
	}
	if err != nil {
		return err
	}
	return h.InProcess.Complete(jobID, server, at)
}

// newHeldFed builds a dispatcher over two held members: m0 owns sv0, m1
// owns sv1 and sv3. wrap, when non-nil, decorates each member (the
// chaos injector).
func newHeldFed(t *testing.T, maxFailures int, wrap func(Member) Member) (*Dispatcher, []*heldMember) {
	t.Helper()
	now := time.Unix(1000, 0)
	held := []*heldMember{newHeldMember(t, "m0"), newHeldMember(t, "m1")}
	members := make([]Member, len(held))
	for i, h := range held {
		members[i] = h
		if wrap != nil {
			members[i] = wrap(h)
		}
	}
	d, err := NewWithMembers(Config{
		Heuristic:   "HMCT",
		Seed:        7,
		StaleAfter:  time.Hour,
		MaxFailures: maxFailures,
		Now:         func() time.Time { return now },
	}, members)
	if err != nil {
		t.Fatal(err)
	}
	for sv, m := range map[string]int{"sv0": 0, "sv1": 1, "sv3": 1} {
		if err := d.Member(m).AddServer(sv); err != nil {
			t.Fatal(err)
		}
		d.AdoptPartition(d.Member(m).Name(), []string{sv})
	}
	return d, held
}

// Two task types for the interleavings: specA is fastest on m0's
// server, then on sv1, then (barely slower) on sv3; specB runs on sv1.
var (
	specA = &task.Spec{Problem: "a", CostOn: map[string]task.Cost{
		"sv0": {Compute: 10}, "sv1": {Compute: 30}, "sv3": {Compute: 31}}}
	specB = &task.Spec{Problem: "b", CostOn: map[string]task.Cost{"sv1": {Compute: 30}}}
)

// submitAsync runs one Submit on its own goroutine.
func submitAsync(d *Dispatcher, r agent.Request) <-chan error {
	out := make(chan error, 1)
	go func() {
		_, err := d.Submit(r)
		out <- err
	}()
	return out
}

// placedOn lists every commit of the job across the member cores.
func placedOn(held []*heldMember, job int) (servers []string) {
	for _, h := range held {
		h.mu.Lock()
		servers = append(servers, h.placed[job]...)
		h.mu.Unlock()
	}
	return servers
}

// TestCommitRefusedFallsBackWithinFanout: a commit the injector refuses
// at the start step (a failed dial: nothing was issued) with no other
// submission in between goes to the next-best candidate of the same
// fan-out — no member is evaluated twice — and the job lands once.
func TestCommitRefusedFallsBackWithinFanout(t *testing.T) {
	inj := NewScriptInjector(0)
	d, held := newHeldFed(t, 3, func(m Member) Member { return Chaos(m, inj) })
	inj.Sever("m0", OpCommit)
	dec, err := d.Submit(req(1, specA, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Server != "sv1" {
		t.Errorf("fell back to %q, want sv1 (next best of the same fan-out)", dec.Server)
	}
	if e0, e1 := held[0].evaluations(), held[1].evaluations(); e0 != 1 || e1 != 1 {
		t.Errorf("evaluations m0=%d m1=%d, want one fan-out", e0, e1)
	}
	if got := inj.Dropped("m0"); got != 1 {
		t.Errorf("injector refused %d calls, want the one commit", got)
	}
	if on := placedOn(held, 1); !slices.Equal(on, []string{"sv1"}) {
		t.Errorf("job 1 is placed on %v, want exactly sv1", on)
	}
	if d.InFlight() != 1 {
		t.Errorf("in flight = %d, want 1", d.InFlight())
	}
}

// TestCommitRejectedAfterInterleavedDecisionRefans: while decision A
// awaits the answer of its commit on m0, decision B passes its own
// ordering point and takes sv1 — the server A's fan-out named second
// best while it was idle. m0 then rejects A's commit. A must not fall
// back on the stale candidate: it asks the members that have not
// refused it again, and lands on sv3, which the fresh evaluation (B now
// occupies sv1) prefers. Both jobs are placed exactly once.
func TestCommitRejectedAfterInterleavedDecisionRefans(t *testing.T) {
	d, held := newHeldFed(t, 3, nil)
	gate := make(chan struct{})
	held[0].script(gate, errors.New("scripted: server withdrawn"))
	aDone := submitAsync(d, req(1, specA, 0))
	if job := <-held[0].started; job != 1 {
		t.Fatalf("m0 started the commit of job %d, want 1", job)
	}
	held[0].script(nil, nil)

	// The lock is released while A waits: B decides in full.
	decB, err := d.Submit(req(2, specB, 0))
	if err != nil {
		t.Fatalf("interleaved decision: %v", err)
	}
	if decB.Server != "sv1" {
		t.Fatalf("B landed on %q, want sv1", decB.Server)
	}
	close(gate)
	if err := <-aDone; err != nil {
		t.Fatalf("A after the rejection: %v", err)
	}
	if on := placedOn(held, 1); !slices.Equal(on, []string{"sv3"}) {
		t.Errorf("job 1 is placed on %v, want exactly sv3 (sv1 was evaluated before B took it)", on)
	}
	if on := placedOn(held, 2); !slices.Equal(on, []string{"sv1"}) {
		t.Errorf("job 2 is placed on %v, want exactly sv1", on)
	}
	// m0: A's fan-out and B's; m1: those two and A's second fan-out,
	// from which m0 (it refused A) is left out.
	if e0, e1 := held[0].evaluations(), held[1].evaluations(); e0 != 2 || e1 != 3 {
		t.Errorf("evaluations m0=%d m1=%d, want 2 and 3", e0, e1)
	}
	if d.InFlight() != 2 {
		t.Errorf("in flight = %d, want 2", d.InFlight())
	}
}

// TestUncertainCommitSurfacedAfterRelock: an uncertain commit failure
// that arrives after the lock was away — with another decision in
// between — is surfaced as before, never rerouted or re-fanned.
func TestUncertainCommitSurfacedAfterRelock(t *testing.T) {
	d, held := newHeldFed(t, 3, nil)
	gate := make(chan struct{})
	held[0].script(gate, errMaybe)
	aDone := submitAsync(d, req(1, specA, 0))
	<-held[0].started
	held[0].script(nil, nil)
	if _, err := d.Submit(req(2, specB, 0)); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if err := <-aDone; !errors.Is(err, ErrUncertain) {
		t.Fatalf("A: %v, want ErrUncertain", err)
	}
	if on := placedOn(held, 1); len(on) != 0 {
		t.Errorf("job 1 was rerouted to %v despite the uncertain commit", on)
	}
	if e1 := held[1].evaluations(); e1 != 2 {
		t.Errorf("m1 evaluated %d times, want 2 (A's fan-out and B's, no second fan-out)", e1)
	}
	if d.InFlight() != 1 {
		t.Errorf("in flight = %d, want 1 (B only)", d.InFlight())
	}
}

// TestHandleSwappedWhileCommitAwaited: m0 rejoins (AddMember swaps the
// slot's handle) while A awaits its commit on the old handle, which
// then fails as a dead process does. The failure belongs to the old
// process: with MaxFailures 1 the new handle must be neither charged
// nor evicted, and A falls back within its fan-out (a rejoin is not a
// submission).
func TestHandleSwappedWhileCommitAwaited(t *testing.T) {
	d, held := newHeldFed(t, 1, nil)
	gate := make(chan struct{})
	held[0].script(gate, errDown)
	aDone := submitAsync(d, req(1, specA, 0))
	<-held[0].started

	fresh := newHeldMember(t, "m0")
	if err := d.AddMember(fresh); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	close(gate)
	if err := <-aDone; err != nil {
		t.Fatalf("A after the old handle failed: %v", err)
	}
	if on := placedOn(held, 1); !slices.Equal(on, []string{"sv1"}) {
		t.Errorf("job 1 is placed on %v, want exactly sv1", on)
	}
	if mi := d.Members()[0]; mi.Evicted {
		t.Error("the rejoined member was evicted for the old process's failure")
	}
	// MaxFailures is 1: not evicted (above) is no failure counted.
	if handle := d.Member(0); handle != Member(fresh) {
		t.Error("slot 0 does not hold the fresh handle")
	}
	if e1 := held[1].evaluations(); e1 != 1 {
		t.Errorf("m1 evaluated %d times, want 1 (fallback within the fan-out)", e1)
	}
}

// TestHandleSwappedWhileCompleteInFlight is the same race on
// Dispatcher.Complete, whose member call has always run outside the
// lock: the old process's transport failure must not be counted against
// the process that rejoined meanwhile.
func TestHandleSwappedWhileCompleteInFlight(t *testing.T) {
	d, held := newHeldFed(t, 1, nil)
	dec, err := d.Submit(req(1, specA, 0))
	if err != nil || dec.Server != "sv0" {
		t.Fatalf("placement: %+v, %v", dec, err)
	}
	<-held[0].started

	gate := make(chan struct{})
	held[0].script(gate, errDown)
	done := make(chan error, 1)
	go func() { done <- d.Complete(1, "sv0", 20) }()
	<-held[0].started
	fresh := newHeldMember(t, "m0")
	if err := d.AddMember(fresh); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	close(gate)
	if err := <-done; !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Complete: %v, want the old handle's transport error", err)
	}
	// MaxFailures is 1: one inherited failure would have evicted it.
	if d.Members()[0].Evicted {
		t.Error("rejoined member inherited the failure")
	}
	// The completion was not acknowledged, so the record stays and a
	// redelivery reaches the slot's current handle.
	if d.InFlight() != 1 {
		t.Errorf("in flight = %d, want 1", d.InFlight())
	}
	if err := d.Complete(1, "sv0", 20); err != nil {
		t.Fatalf("redelivered completion: %v", err)
	}
	if d.InFlight() != 0 {
		t.Errorf("in flight after redelivery = %d, want 0", d.InFlight())
	}
}
