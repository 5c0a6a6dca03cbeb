package fed

// Member-failure paths: summary staleness expiry degrading the
// routing mode, consecutive-failure eviction and probe readmission,
// and the dispatcher's in-flight accounting when a member dies
// between Evaluate and Commit.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/sched"
	"casched/internal/task"
)

// flaky wraps a Member with switchable failure injection: when down,
// every call fails as a transport would.
type flaky struct {
	Member
	down       bool
	commitOnly bool // fail only Commit (the died-between-halves case)
	uncertain  bool // fail with ErrUncertain instead of plain ErrUnreachable
}

// errDown is certain transport failure (a refused dial: the request
// provably never left), errMaybe the uncertain kind (timeout after
// send) — the two classes a real dead member produces.
var (
	errDown  = fmt.Errorf("injected dial failure: %w", ErrUnreachable)
	errMaybe = fmt.Errorf("injected timeout: %w", ErrUncertain)
)

func (f *flaky) fail(full bool) bool { return f.down && (full || !f.commitOnly) }

func (f *flaky) err() error {
	if f.uncertain {
		return errMaybe
	}
	return errDown
}

func (f *flaky) AddServer(server string) error {
	if f.fail(false) {
		return errDown
	}
	return f.Member.AddServer(server)
}

func (f *flaky) CanSolve(spec *task.Spec) (bool, error) {
	if f.fail(false) {
		return false, errDown
	}
	return f.Member.CanSolve(spec)
}

func (f *flaky) Evaluate(req agent.Request) (agent.Candidate, error) {
	if f.fail(false) {
		return agent.Candidate{}, errDown
	}
	return f.Member.Evaluate(req)
}

func (f *flaky) Commit(req agent.Request, server string) (agent.Decision, error) {
	if f.fail(true) {
		return agent.Decision{}, f.err()
	}
	return f.Member.Commit(req, server)
}

func (f *flaky) Submit(req agent.Request) (agent.Decision, error) {
	if f.fail(false) {
		return agent.Decision{}, errDown
	}
	return f.Member.Submit(req)
}

func (f *flaky) SubmitBatch(reqs []agent.Request) ([]agent.Decision, error) {
	if f.fail(false) {
		return make([]agent.Decision, len(reqs)), errDown
	}
	return f.Member.SubmitBatch(reqs)
}

func (f *flaky) Summary() (Summary, error) {
	if f.fail(false) {
		return Summary{}, errDown
	}
	return f.Member.Summary()
}

// evenSpec is solvable on every test server with uniform cost.
func evenSpec(servers []string) *task.Spec {
	costs := make(map[string]task.Cost, len(servers))
	for _, s := range servers {
		costs[s] = task.Cost{Input: 1, Compute: 30, Output: 1}
	}
	return &task.Spec{Problem: "synthetic", Variant: 0, CostOn: costs}
}

// newFlakyFed builds a dispatcher over nMembers in-process HMCT cores
// wrapped in flaky decorators, with sv servers spread round-robin, a
// controllable clock, and the given config tweaks applied.
func newFlakyFed(t *testing.T, nMembers, nServers int, tweak func(*Config)) (*Dispatcher, []*flaky, []string, *time.Time) {
	t.Helper()
	now := time.Unix(1000, 0)
	cfg := Config{
		Heuristic:   "HMCT",
		Seed:        7,
		StaleAfter:  10 * time.Second,
		MaxFailures: 2,
		Now:         func() time.Time { return now },
	}
	if tweak != nil {
		tweak(&cfg)
	}
	members := make([]Member, nMembers)
	flakies := make([]*flaky, nMembers)
	for i := range members {
		s, err := sched.ByName(cfg.Heuristic)
		if err != nil {
			t.Fatal(err)
		}
		core, err := agent.New(agent.Config{Scheduler: s, Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		flakies[i] = &flaky{Member: NewInProcess(fmt.Sprintf("m%d", i), core)}
		members[i] = flakies[i]
	}
	d, err := NewWithMembers(cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin partition via an inline policy so each member gets
	// nServers/nMembers servers deterministically.
	servers := make([]string, nServers)
	for i := range servers {
		servers[i] = fmt.Sprintf("sv%02d", i)
	}
	for i, sv := range servers {
		m := i % nMembers
		if err := d.Member(m).AddServer(sv); err != nil {
			t.Fatal(err)
		}
		d.AdoptPartition(d.Member(m).Name(), []string{sv})
	}
	return d, flakies, servers, &now
}

func req(id int, spec *task.Spec, at float64) agent.Request {
	return agent.Request{JobID: id, TaskID: id, Spec: spec, Arrival: at}
}

// TestStalenessDegradesRouting pins the mode switch: with
// SummaryInterval too large to refresh inline and the clock advanced
// past StaleAfter, Submit stops fanning out (exact mode) and instead
// delegates whole decisions to a p2c-chosen member.
func TestStalenessDegradesRouting(t *testing.T) {
	d, _, servers, now := newFlakyFed(t, 2, 4, func(c *Config) {
		c.SummaryInterval = time.Hour // never refresh inline after the first fetch
		c.StaleAfter = 5 * time.Second
	})
	spec := evenSpec(servers)

	// First submission fetches summaries (age 0): fresh → fan-out.
	if _, err := d.Submit(req(1, spec, 0)); err != nil {
		t.Fatal(err)
	}
	fresh := d.Members()
	for _, mi := range fresh {
		if !mi.Fresh {
			t.Fatalf("member %s not fresh after first submit: %+v", mi.Name, mi)
		}
	}

	// Advance past StaleAfter: no member is fresh any more, and the
	// dispatcher must keep scheduling (degraded mode) rather than
	// fail or block.
	*now = now.Add(6 * time.Second)
	for _, mi := range d.Members() {
		if mi.Fresh {
			t.Fatalf("member %s still fresh after expiry: %+v", mi.Name, mi)
		}
	}
	for i := 2; i <= 9; i++ {
		if i%3 == 2 {
			// The background gossip tick: summaries update every few
			// decisions but stay past StaleAfter, so routing keeps
			// working from lagged data in degraded mode.
			d.RefreshSummaries()
			*now = now.Add(6 * time.Second)
		}
		if _, err := d.Submit(req(i, spec, float64(i))); err != nil {
			t.Fatalf("degraded submit %d: %v", i, err)
		}
	}
	if got := d.InFlight(); got != 9 {
		t.Errorf("in-flight = %d, want 9", got)
	}

	// Degraded mode delegates whole decisions to the p2c choice over
	// the lagged summaries: the balance signal updates on each gossip
	// tick, so both members keep receiving work.
	m0 := d.Member(0).(*flaky).Member.(*InProcess).Core().InFlight()
	m1 := d.Member(1).(*flaky).Member.(*InProcess).Core().InFlight()
	if m0+m1 != 9 {
		t.Errorf("member in-flight %d+%d != 9", m0, m1)
	}
	if m0 == 0 || m1 == 0 {
		t.Errorf("degraded routing starved a member: %d vs %d", m0, m1)
	}
}

// TestEvictionAndReadmission pins the failure lifecycle: MaxFailures
// consecutive failures evict a member (its partition leaves the
// pool), a recovered member is readmitted by the periodic probe, and
// scheduling never stops in between.
func TestEvictionAndReadmission(t *testing.T) {
	d, flakies, servers, now := newFlakyFed(t, 2, 4, func(c *Config) {
		c.ProbeInterval = 30 * time.Second
	})
	spec := evenSpec(servers)

	if _, err := d.Submit(req(1, spec, 0)); err != nil {
		t.Fatal(err)
	}

	// Kill member 1. Each submission's refresh fails once; after
	// MaxFailures=2 it is evicted and stops being probed inline.
	flakies[1].down = true
	for i := 2; i <= 4; i++ {
		*now = now.Add(time.Second)
		if _, err := d.Submit(req(i, spec, float64(i))); err != nil {
			t.Fatalf("submit %d with member down: %v", i, err)
		}
	}
	if mi := d.Members()[1]; !mi.Evicted {
		t.Fatalf("member 1 not evicted after repeated failures: %+v", mi)
	}
	// All post-failure work went to member 0.
	if m0 := d.Member(0).(*flaky).Member.(*InProcess).Core().InFlight(); m0 < 3 {
		t.Errorf("survivor holds %d jobs, want >= 3", m0)
	}

	// Recover the member; before the probe interval elapses even the
	// forced gossip tick keeps it evicted, after it the tick's probe
	// readmits it (inline submissions fire the same probe
	// asynchronously so they never wait on a dead member).
	flakies[1].down = false
	*now = now.Add(5 * time.Second)
	d.RefreshSummaries()
	if _, err := d.Submit(req(5, spec, 5)); err != nil {
		t.Fatal(err)
	}
	if mi := d.Members()[1]; !mi.Evicted {
		t.Fatalf("member 1 readmitted before probe interval: %+v", mi)
	}
	*now = now.Add(31 * time.Second)
	d.RefreshSummaries()
	if _, err := d.Submit(req(6, spec, 6)); err != nil {
		t.Fatal(err)
	}
	if mi := d.Members()[1]; mi.Evicted {
		t.Fatalf("member 1 not readmitted after probe: %+v", mi)
	}

	// Readmitted members receive work again.
	before := d.Member(1).(*flaky).Member.(*InProcess).Core().InFlight()
	for i := 7; i <= 14; i++ {
		if _, err := d.Submit(req(i, spec, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	after := d.Member(1).(*flaky).Member.(*InProcess).Core().InFlight()
	if after <= before {
		t.Errorf("readmitted member received no work (%d -> %d)", before, after)
	}
}

// TestCommitFailureAccounting pins the died-between-Evaluate-and-
// Commit path: the fan-out decision must fall back to the next-best
// member's candidate, the dead member must not be charged a placed
// job, and the dispatcher's in-flight accounting must reflect only
// real commits.
func TestCommitFailureAccounting(t *testing.T) {
	d, flakies, servers, _ := newFlakyFed(t, 2, 4, nil)
	spec := evenSpec(servers)

	// Member 0 answers Evaluate but dies at Commit.
	flakies[0].down = true
	flakies[0].commitOnly = true

	placedOn := make(map[string]bool)
	for _, sv := range servers {
		if i, ok := d.MemberOf(sv); ok && i == 1 {
			placedOn[sv] = true
		}
	}
	for i := 1; i <= 6; i++ {
		dec, err := d.Submit(req(i, spec, float64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if !placedOn[dec.Server] {
			t.Fatalf("job %d committed on dead member's server %s", i, dec.Server)
		}
	}
	if got := d.InFlight(); got != 6 {
		t.Errorf("dispatcher in-flight = %d, want 6 (only real commits)", got)
	}
	if m0 := d.Member(0).(*flaky).Member.(*InProcess).Core().InFlight(); m0 != 0 {
		t.Errorf("dead member charged %d in-flight jobs, want 0", m0)
	}
	if m1 := d.Member(1).(*flaky).Member.(*InProcess).Core().InFlight(); m1 != 6 {
		t.Errorf("surviving member in-flight = %d, want 6", m1)
	}

	// Completions for the survivor's jobs consume the accounting.
	for i := 1; i <= 6; i++ {
		if err := d.Complete(i, "", 100); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.InFlight(); got != 0 {
		t.Errorf("in-flight after completions = %d, want 0", got)
	}
}

// TestSchedulingErrorsDoNotEvict pins that a member which answers —
// even rejecting every request in a delivered batch — is never
// evicted: only transport failures (ErrUnreachable) count.
func TestSchedulingErrorsDoNotEvict(t *testing.T) {
	d, _, servers, _ := newFlakyFed(t, 2, 4, nil)
	// Solvable only on member 0's partition (round-robin assignment:
	// even servers on member 0), so the batch cannot migrate to the
	// other member on resubmission.
	spec := evenSpec([]string{servers[0], servers[2]})

	// Place a batch, then resubmit the same job ids: the HTM rejects
	// reused ids, so every request in the delivered batch fails
	// member-side.
	batch := []agent.Request{req(1, spec, 0), req(2, spec, 0), req(3, spec, 0)}
	if _, err := d.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		if _, err := d.SubmitBatch(batch); err == nil {
			t.Fatal("resubmitted batch succeeded, want member-side rejection")
		}
	}
	for _, mi := range d.Members() {
		if mi.Evicted {
			t.Fatalf("member %s evicted by scheduling errors: %+v", mi.Name, mi)
		}
	}
	// The federation still schedules fresh work.
	if _, err := d.Submit(req(100, spec, 1)); err != nil {
		t.Fatalf("submit after rejected batches: %v", err)
	}

	// The single-member shortcut path must behave the same way.
	single, _, ssv, _ := newFlakyFed(t, 1, 2, nil)
	sspec := evenSpec(ssv)
	sbatch := []agent.Request{req(1, sspec, 0), req(2, sspec, 0)}
	if _, err := single.SubmitBatch(sbatch); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		if _, err := single.SubmitBatch(sbatch); err == nil {
			t.Fatal("single-member resubmitted batch succeeded, want rejection")
		}
	}
	if single.Members()[0].Evicted {
		t.Fatal("sole member evicted by scheduling errors")
	}
}

// TestAddServerReroutesFromEvictedMember pins that server
// registration keeps working while a member is evicted: the policy's
// pick is rerouted among the live members.
func TestAddServerReroutesFromEvictedMember(t *testing.T) {
	d, flakies, servers, now := newFlakyFed(t, 2, 4, nil)
	spec := evenSpec(servers)

	flakies[1].down = true
	for i := 1; i <= 3; i++ {
		*now = now.Add(time.Second)
		_, _ = d.Submit(req(i, spec, float64(i)))
	}
	if !d.Members()[1].Evicted {
		t.Fatal("member 1 not evicted")
	}
	// Register many servers: every one must land on the live member,
	// whatever the policy would have picked.
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("late%02d", i)
		if err := d.AddServer(name); err != nil {
			t.Fatalf("AddServer(%s) with evicted member: %v", name, err)
		}
		if m, _ := d.MemberOf(name); m != 0 {
			t.Fatalf("server %s routed to evicted member %d", name, m)
		}
	}
}

// TestUncertainCommitDoesNotRetryElsewhere pins the double-commit
// guard: when a commit fails with delivery uncertain (a timeout — the
// member may have committed before the transport gave up), the
// decision must NOT be retried on another member; the error surfaces
// and nothing is recorded as placed.
func TestUncertainCommitDoesNotRetryElsewhere(t *testing.T) {
	d, flakies, servers, _ := newFlakyFed(t, 2, 4, nil)
	spec := evenSpec(servers)

	flakies[0].down = true
	flakies[0].commitOnly = true
	flakies[0].uncertain = true

	// HMCT on an empty testbed ties everywhere; the cross-member tie
	// resolves to member 0, whose commit then times out.
	_, err := d.Submit(req(1, spec, 0))
	if err == nil {
		t.Fatal("uncertain commit succeeded via another member — double-commit hazard")
	}
	if !errors.Is(err, ErrUncertain) {
		t.Fatalf("err = %v, want ErrUncertain in chain", err)
	}
	if got := d.InFlight(); got != 0 {
		t.Errorf("in-flight = %d after uncertain commit, want 0", got)
	}
	if m1 := d.Member(1).(*flaky).Member.(*InProcess).Core().InFlight(); m1 != 0 {
		t.Errorf("job rerouted to member 1 (%d in flight) despite uncertain commit", m1)
	}
}

// TestRejoinReplaysPartition pins member-restart recovery: a member
// rejoining under its old name (a restarted casagent with an empty
// core) has its server partition replayed into the new handle, so
// its servers become schedulable again.
func TestRejoinReplaysPartition(t *testing.T) {
	d, _, servers, _ := newFlakyFed(t, 2, 4, nil)
	// Only member 1's servers solve this spec.
	spec := evenSpec([]string{servers[1], servers[3]})
	if _, err := d.Submit(req(1, spec, 0)); err != nil {
		t.Fatal(err)
	}

	// "Restart" member 1: a fresh core, empty membership, same name.
	s, err := sched.ByName("HMCT")
	if err != nil {
		t.Fatal(err)
	}
	core, err := agent.New(agent.Config{Scheduler: s, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddMember(NewInProcess("m1", core)); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if got := d.NumMembers(); got != 2 {
		t.Fatalf("rejoin duplicated the member: %d members", got)
	}
	if got := core.ServerCount(); got != 2 {
		t.Fatalf("rejoined member has %d servers, want 2 replayed", got)
	}
	if _, err := d.Submit(req(2, spec, 1)); err != nil {
		t.Fatalf("submit after rejoin: %v", err)
	}
}

// TestAllMembersDownSurfacesError pins the no-live-member error.
func TestAllMembersDownSurfacesError(t *testing.T) {
	d, flakies, servers, now := newFlakyFed(t, 2, 4, nil)
	spec := evenSpec(servers)
	flakies[0].down = true
	flakies[1].down = true
	var lastErr error
	for i := 1; i <= 6; i++ {
		*now = now.Add(time.Second)
		if _, err := d.Submit(req(i, spec, float64(i))); err != nil {
			lastErr = err
		}
	}
	if !errors.Is(lastErr, ErrNoMembers) {
		t.Fatalf("want ErrNoMembers once all members evicted, got %v", lastErr)
	}
}
