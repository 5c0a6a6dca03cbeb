package cluster

// Exactness of the carried ceiling: a fan-out that evaluates each shard
// below the best score found so far (evaluateAllLocked) must place
// exactly where the fan-out without ceilings placed, which is
// BetterCandidate's chain over every shard's plain Evaluate.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"casched/internal/agent"
	"casched/internal/sched"
	"casched/internal/stats"
	"casched/internal/task"
)

// ceilingRig drives the same requests through a Dispatcher over
// in-process shards, which carries ceilings, and through twin cores that
// are each evaluated plainly, their answers compared by BetterCandidate
// in shard order and the winner committed: the fan-out as it stood before
// ceilings.
type ceilingRig struct {
	t     *testing.T
	d     *Dispatcher
	cores []*agent.Core
	twins []*agent.Core
	// beforeCommit, when set, runs once, on the ceiling side, between the
	// fan-out and its first commit, with the shard and server committed
	// on: how a test removes the winner's server to have its commit
	// refused.
	beforeCommit func(shard int, server string)
}

// hookShard is an always-fresh shard whose Commit first runs the rig's
// beforeCommit hook.
type hookShard struct {
	shard
	rig *ceilingRig
	idx int
}

func (h hookShard) Commit(req agent.Request, server string) (agent.Decision, error) {
	if hook := h.rig.beforeCommit; hook != nil {
		h.rig.beforeCommit = nil
		hook(h.idx, server)
	}
	return h.shard.Commit(req, server)
}

func newCeilingRig(t *testing.T, heuristic string, shards int, policy ShardPolicy, seed uint64) *ceilingRig {
	t.Helper()
	r := &ceilingRig{t: t}
	newCore := func() *agent.Core {
		s, err := sched.ByName(heuristic)
		if err != nil {
			t.Fatal(err)
		}
		c, err := agent.New(agent.Config{Scheduler: s, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	members := make([]Member, shards)
	for i := range members {
		r.cores = append(r.cores, newCore())
		r.twins = append(r.twins, newCore())
		members[i] = hookShard{shard{NewInProcess(fmt.Sprintf("shard-%d", i), r.cores[i])}, r, i}
	}
	r.d = newDispatcher(DispatcherConfig{Policy: policy, Seed: seed}, true, "cluster", members)
	return r
}

// addServer registers a server on both sides, on the same shard.
func (r *ceilingRig) addServer(name string) {
	if err := r.d.AddServer(name); err != nil {
		r.t.Fatal(err)
	}
	i, _ := r.d.MemberOf(name)
	r.twins[i].AddServer(name)
}

// place commits a job on a given server on both sides, bypassing the
// fan-out: the history a near-tie case is built on.
func (r *ceilingRig) place(req agent.Request, server string) {
	i, _ := r.d.MemberOf(server)
	for _, c := range []*agent.Core{r.cores[i], r.twins[i]} {
		if _, err := c.Commit(req, server); err != nil {
			r.t.Fatal(err)
		}
	}
}

// chain is the winner of BetterCandidate's chain over the twins' plain
// answers, in shard order, leaving out the shard skip (-1 for none).
func chain(answers []agent.Candidate, ok []bool, skip int) int {
	best := -1
	for i := range answers {
		if ok[i] && i != skip && (best < 0 || BetterCandidate(answers[i], answers[best])) {
			best = i
		}
	}
	return best
}

// twinSubmit is the decision of the fan-out without ceilings on the
// twins. With refuse, the first winner's server is removed before its
// commit, as beforeCommit does on the ceiling side, and the decision goes
// to the next of the chain. It returns the shard committed on (-1 for
// none) and the shard first chosen.
func (r *ceilingRig) twinSubmit(req agent.Request, refuse bool) (dec agent.Decision, shard, first int, err error) {
	answers := make([]agent.Candidate, len(r.twins))
	ok := make([]bool, len(r.twins))
	for i, c := range r.twins {
		answers[i], err = c.Evaluate(req)
		ok[i] = err == nil
	}
	first = chain(answers, ok, -1)
	if first < 0 {
		return agent.Decision{}, -1, -1, agent.ErrUnschedulable
	}
	shard = first
	if refuse {
		r.twins[first].RemoveServer(answers[first].Server)
		if shard = chain(answers, ok, first); shard < 0 {
			return agent.Decision{}, -1, first, errors.New("every commit refused")
		}
	}
	dec, err = r.twins[shard].Commit(req, answers[shard].Server)
	return dec, shard, first, err
}

// beaten sums the ceiling side's EvalStats.Beaten.
func (r *ceilingRig) beaten() (n uint64) {
	for _, c := range r.cores {
		n += c.EvalStats().Beaten
	}
	return n
}

// submit places req on both sides, and with refuse has the first
// winner's commit refused on both, and fails the test unless both place
// it on the same server with the same predicted completion, bit for bit.
// The removed server is registered again afterwards on both sides. It
// returns the decision and reports whether the ceiling side had a refused
// commit fall back to a shard that was beaten under the ceiling.
func (r *ceilingRig) submit(req agent.Request, refuse bool) (dec agent.Decision, fellBackToBeaten bool) {
	r.t.Helper()
	var refused string
	refusedShard := -1
	if refuse {
		r.beforeCommit = func(i int, server string) {
			refusedShard, refused = i, server
			r.cores[i].RemoveServer(server)
		}
	}
	before := make([]uint64, len(r.cores))
	for i, c := range r.cores {
		before[i] = c.EvalStats().Beaten
	}
	got, err := r.d.Submit(req)
	r.beforeCommit = nil
	want, shard, first, werr := r.twinSubmit(req, refuse)
	if (err == nil) != (werr == nil) {
		r.t.Fatalf("job %d: with ceilings error %v, without %v", req.JobID, err, werr)
	}
	if got.Server != want.Server || got.HasPrediction != want.HasPrediction ||
		math.Float64bits(got.Predicted) != math.Float64bits(want.Predicted) {
		r.t.Fatalf("job %d: with ceilings placed on %q (predicted %v), without on %q (predicted %v)",
			req.JobID, got.Server, got.Predicted, want.Server, want.Predicted)
	}
	if refuse && first >= 0 {
		if refusedShard != first {
			r.t.Fatalf("job %d: with ceilings shard %d's commit was refused, without shard %d's", req.JobID, refusedShard, first)
		}
		r.cores[first].AddServer(refused)
		r.twins[first].AddServer(refused)
		fellBackToBeaten = shard >= 0 && r.cores[shard].EvalStats().Beaten > before[shard]
	}
	return got, fellBackToBeaten
}

// ceilingSpecs are three task types priced by server class (the server's
// index mod 3), so that servers of one class, spread over the shards by
// hash, tie exactly.
func ceilingSpecs(servers []string) []*task.Spec {
	computes := [3]float64{6, 9, 14}
	phases := [3][2]float64{{0, 0.5}, {0.5, 0}, {1, 2}}
	specs := make([]*task.Spec, 3)
	for s := range specs {
		spec := &task.Spec{Problem: "ceiling", Variant: s, CostOn: map[string]task.Cost{}}
		for k, name := range servers {
			spec.CostOn[name] = task.Cost{Input: phases[s][0], Compute: computes[k%3] * float64(s+1) / 2, Output: phases[s][1]}
		}
		specs[s] = spec
	}
	return specs
}

// idxPolicy assigns a server named "<digit>-..." to the shard of that
// digit.
type idxPolicy struct{}

func (idxPolicy) Name() string { return "index" }

func (idxPolicy) Assign(server string, counts []int) int { return int(server[0]-'0') % len(counts) }

// TestCeilingSamePlacements holds the carried ceiling to the fan-out
// without it, decision by decision, over seeded streams and over
// constructed near ties, with refused commits.
func TestCeilingSamePlacements(t *testing.T) {
	t.Run("Streams", func(t *testing.T) {
		var beaten uint64
		fallbacks := 0
		for _, heuristic := range []string{"HMCT", "MSF"} {
			for _, shards := range []int{2, 3, 4, 6, 8} {
				for seed := uint64(1); seed <= 2; seed++ {
					b, f := ceilingStream(t, heuristic, shards, seed)
					beaten += b
					fallbacks += f
				}
			}
		}
		if beaten == 0 || fallbacks == 0 {
			t.Errorf("%d shard evaluations beaten, %d refused commits fell back to a beaten shard; want some of each", beaten, fallbacks)
		}
		t.Logf("%d shard evaluations beaten, %d refused commits fell back to a beaten shard", beaten, fallbacks)
	})
	t.Run("NearTieChain", func(t *testing.T) {
		// MSF: three shards whose winners' scores rise by 0.9·tieEps while
		// their completion dates fall by seconds, so each passes the one
		// before on the tie and the last wins 1.8·tieEps above the first
		// score. Shard 0's server is idle (score w); shard 1's shares the
		// CPU with one long job (score 3w'); shard 2's with two (5w'').
		rig := newCeilingRig(t, "MSF", 3, idxPolicy{}, 1)
		for _, s := range []string{"0-idle", "1-one", "2-two"} {
			rig.addServer(s)
		}
		long := &task.Spec{Problem: "long", CostOn: map[string]task.Cost{"1-one": {Compute: 1000}, "2-two": {Compute: 1000}}}
		rig.place(agent.Request{JobID: 1, TaskID: 1, Spec: long}, "1-one")
		rig.place(agent.Request{JobID: 2, TaskID: 2, Spec: long}, "2-two")
		rig.place(agent.Request{JobID: 3, TaskID: 3, Spec: long}, "2-two")
		const eps = tieEps
		spec := &task.Spec{Problem: "near", CostOn: map[string]task.Cost{
			"0-idle": {Compute: 30},
			"1-one":  {Compute: (30 + 0.9*eps) / 3},
			"2-two":  {Compute: (30 + 1.8*eps) / 5},
		}}
		req := agent.Request{JobID: 4, TaskID: 4, Spec: spec, Arrival: 1}
		var c [3]agent.Candidate
		for i, core := range rig.twins {
			var err error
			if c[i], err = core.Evaluate(req); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < 3; i++ {
			if d := c[i].Score - c[i-1].Score; d <= 0 || d > eps || c[i].Tie >= c[i-1].Tie-eps {
				t.Fatalf("shards %d and %d are not a near tie: scores %.17g, %.17g; ties %v, %v", i-1, i, c[i-1].Score, c[i].Score, c[i-1].Tie, c[i].Tie)
			}
		}
		if c[2].Score <= c[0].Score+eps {
			t.Fatalf("the chain's winner %.17g is within tie of the first score %.17g", c[2].Score, c[0].Score)
		}
		if dec, _ := rig.submit(req, false); dec.Server != "2-two" {
			t.Fatalf("placed on %s, want 2-two", dec.Server)
		}
		// HMCT: scores falling by 0.6·tieEps; the third passes the first.
		rig = newCeilingRig(t, "HMCT", 3, idxPolicy{}, 1)
		for _, s := range []string{"0-a", "1-b", "2-c"} {
			rig.addServer(s)
		}
		spec = &task.Spec{Problem: "near", CostOn: map[string]task.Cost{
			"0-a": {Compute: 30}, "1-b": {Compute: 30 - 0.6*eps}, "2-c": {Compute: 30 - 1.2*eps},
		}}
		if dec, _ := rig.submit(agent.Request{JobID: 1, TaskID: 1, Spec: spec, Arrival: 1}, false); dec.Server != "2-c" {
			t.Fatalf("placed on %s, want 2-c", dec.Server)
		}
	})
	t.Run("RefusedCommit", func(t *testing.T) {
		// Shard 0 wins; shard 1, asked below its score, is beaten. When
		// shard 0's commit is refused the decision must still reach
		// shard 1's server, which only a fan-out run again can find.
		for _, heuristic := range []string{"HMCT", "MSF"} {
			rig := newCeilingRig(t, heuristic, 2, idxPolicy{}, 1)
			rig.addServer("0-a")
			rig.addServer("1-b")
			spec := &task.Spec{Problem: "refused", CostOn: map[string]task.Cost{"0-a": {Compute: 5}, "1-b": {Compute: 50}}}
			req := agent.Request{JobID: 1, TaskID: 1, Spec: spec, Arrival: 1}
			dec, fellBack := rig.submit(req, true)
			if dec.Server != "1-b" || !fellBack {
				t.Fatalf("%s: placed on %q after the refusal (fell back to a beaten shard: %v), want 1-b", heuristic, dec.Server, fellBack)
			}
			// Every commit refused: shard 1's server goes too. The error is
			// the refusal's; a beaten shard did not fail.
			rig.beforeCommit = func(i int, server string) {
				rig.cores[i].RemoveServer(server)
				rig.cores[1].RemoveServer("1-b")
			}
			_, err := rig.d.Submit(agent.Request{JobID: 2, TaskID: 2, Spec: spec, Arrival: 2})
			if err == nil || errors.Is(err, agent.ErrBeaten) {
				t.Fatalf("%s: every commit refused, got error %v; want the refusal, not ErrBeaten", heuristic, err)
			}
		}
	})
}

// ceilingStream drives 300 requests, about 0.9 utilisation, through a
// rig of the given shape with replicated servers, the commit of every
// ninth refused, and each job completed at its predicted date 2n
// decisions after it was placed. It returns the shard evaluations beaten
// and the refused commits that fell back to a beaten shard.
func ceilingStream(t *testing.T, heuristic string, shards int, seed uint64) (beaten uint64, fallbacks int) {
	t.Helper()
	rig := newCeilingRig(t, heuristic, shards, Hash(), seed)
	rng := stats.NewRNG(seed*1000 + uint64(shards))
	n := 3*shards + rng.Intn(3*shards)
	servers := make([]string, n)
	for k := range servers {
		servers[k] = fmt.Sprintf("sv%02d", k)
		rig.addServer(servers[k])
	}
	specs := ceilingSpecs(servers)
	var placed []agent.Decision
	now := 0.0
	for id := 0; id < 300; id++ {
		now += rng.Exp(10 / (0.9 * float64(n)))
		req := agent.Request{JobID: id, TaskID: id, Spec: specs[rng.Intn(len(specs))], Arrival: now}
		dec, fellBack := rig.submit(req, id%9 == 8)
		if fellBack {
			fallbacks++
		}
		placed = append(placed, dec)
		if w := 2 * n; len(placed) > w {
			if j := placed[len(placed)-1-w]; j.Server != "" {
				sh, _ := rig.d.MemberOf(j.Server)
				rig.cores[sh].Complete(j.JobID, j.Server, j.Predicted)
				rig.twins[sh].Complete(j.JobID, j.Server, j.Predicted)
			}
		}
	}
	return rig.beaten(), fallbacks
}
