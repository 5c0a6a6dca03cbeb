package scenario

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/fed"
	"casched/internal/htm"
	"casched/internal/sched"
	"casched/internal/task"
	"casched/internal/workload"
)

// The differential test of candidate pruning: every scenario family's
// workload, on every in-process deployment shape, under every
// heuristic, is decided twice — once as deployed (HMCT and MSF read the
// HTM through its pruning view) and once against the Manager's own
// exhaustive EvaluateAllInto, the evaluation of the design before
// pruning — and the two runs must agree at every decision on the
// server, on the heuristic's Score and Tie, on the shed verdict and on
// the prediction.

// unpruned returns the context with the pruning view the core handed
// the heuristic replaced by the Manager behind it.
func unpruned(ctx *sched.Context) *sched.Context {
	c := *ctx
	if z, ok := c.HTM.(*htm.Minimizer); ok {
		c.HTM = z.Manager
	}
	return &c
}

// exhaustiveHMCT and exhaustiveMSF are the reference heuristics. They
// embed the concrete type, as every wrapper of an HTM heuristic must,
// so sched still sees an HTM user.

type exhaustiveHMCT struct{ *sched.HMCT }

func (e exhaustiveHMCT) Choose(ctx *sched.Context) (string, error) {
	return e.HMCT.Choose(unpruned(ctx))
}
func (e exhaustiveHMCT) ChooseScored(ctx *sched.Context) (sched.Choice, error) {
	return e.HMCT.ChooseScored(unpruned(ctx))
}

type exhaustiveMSF struct{ *sched.MSF }

func (e exhaustiveMSF) Choose(ctx *sched.Context) (string, error) {
	return e.MSF.Choose(unpruned(ctx))
}
func (e exhaustiveMSF) ChooseScored(ctx *sched.Context) (sched.Choice, error) {
	return e.MSF.ChooseScored(unpruned(ctx))
}

// diffHeuristic is one row of the heuristic dimension: the scheduler as
// deployed and its exhaustive reference (the same constructor for the
// heuristics that declare no objective, which the core already
// evaluates exhaustively).
type diffHeuristic struct {
	name string
	// base is the registry name the federation dispatcher is told.
	base              string
	deployed, exhaust func() sched.Scheduler
	// prunes says the deployed scheduler declares an objective.
	prunes bool
	// unscored heuristics cannot be fanned out by the federation
	// dispatcher under a scored registry name.
	unscored bool
}

func diffHeuristics() []diffHeuristic {
	var hs []diffHeuristic
	for _, name := range sched.Names() {
		byName := func() sched.Scheduler {
			s, err := sched.ByName(name)
			if err != nil {
				panic(err)
			}
			return s
		}
		h := diffHeuristic{name: name, base: name, deployed: byName, exhaust: byName}
		switch name {
		case "HMCT":
			h.exhaust = func() sched.Scheduler { return exhaustiveHMCT{sched.NewHMCT()} }
			h.prunes = true
		case "MSF":
			h.exhaust = func() sched.Scheduler { return exhaustiveMSF{sched.NewMSF()} }
			h.prunes = true
		}
		hs = append(hs, h)
	}
	randomTie := func() sched.Scheduler { return &sched.MP{Tie: sched.TieRandom} }
	hs = append(hs, diffHeuristic{name: "MP/random-tie", base: "MP", deployed: randomTie, exhaust: randomTie})
	// The memory filter refuses the valette replicas to the tasks that
	// carry a footprint (diffWorkloads gives one variant in three one).
	demand := func(server string) (float64, float64, bool) {
		if strings.HasPrefix(server, "valette") {
			return 0, 32, true
		}
		return 0, 1024, true
	}
	hs = append(hs,
		diffHeuristic{name: "HMCT+mem", base: "HMCT", prunes: true, unscored: true,
			deployed: func() sched.Scheduler { return &sched.MemoryAware{Inner: sched.NewHMCT(), Demand: demand} },
			exhaust: func() sched.Scheduler {
				return &sched.MemoryAware{Inner: exhaustiveHMCT{sched.NewHMCT()}, Demand: demand}
			}},
		diffHeuristic{name: "MSF+mem", base: "MSF", prunes: true, unscored: true,
			deployed: func() sched.Scheduler { return &sched.MemoryAware{Inner: sched.NewMSF(), Demand: demand} },
			exhaust: func() sched.Scheduler {
				return &sched.MemoryAware{Inner: exhaustiveMSF{sched.NewMSF()}, Demand: demand}
			}},
	)
	return hs
}

// diffReplicas scales the families' testbed (2 replicas, 8 servers) to
// 24 servers so that bounds have something to separate; arrivals are
// compressed by the same factor to keep the families' load.
const diffReplicas = 6

// diffWorkloads generates each family's workload with the family's own
// generator and default parameters: trace's bursty multi-tenant
// deadline-stamped stream, diurnal's thinning-sampled inhomogeneous
// Poisson arrivals, heavytail's Pareto service times and fedchaos's
// plain second-set stream.
func diffWorkloads(t *testing.T) (names []string, out map[string]*task.Metatask) {
	t.Helper()
	var (
		tc TraceConfig
		dc DiurnalConfig
		hc HeavyTailConfig
		fc FedChaosConfig
	)
	tc.defaults()
	dc.defaults()
	hc.defaults()
	fc.defaults()
	scale := func(d float64, replicas int) float64 { return d * float64(replicas) / diffReplicas }

	diurnal := workload.Diurnal(dc.N, scale(dc.D, dc.Replicas), dc.Seed)
	diurnal.DiurnalAmplitude = dc.Amplitude
	heavy := workload.HeavyTail(workload.Set2(hc.N, scale(hc.D, hc.Replicas), hc.Seed), workload.ServicePareto, hc.Alpha)
	heavy.TailSigma = hc.Sigma
	scenarios := map[string]workload.Scenario{
		"trace": workload.MultiTenant(workload.PoissonBurst(tc.N, scale(tc.D, tc.Replicas), tc.Seed),
			map[string]float64{"gold": 2, "silver": 1}, 6),
		"diurnal":   diurnal,
		"heavytail": heavy,
		"fedchaos":  workload.Set2(fc.N, scale(fc.D, fc.Replicas), fc.Seed),
	}
	names, rewrite := testbed(diffReplicas)
	withFootprint := make(map[*task.Spec]*task.Spec)
	out = make(map[string]*task.Metatask, len(scenarios))
	for family, sc := range scenarios {
		mt, err := workload.Generate(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range mt.Tasks {
			spec := rewrite(tk.Spec)
			if spec.Variant == 400 {
				// A footprint for the memory filter to act on; the traces
				// do not model memory, so nothing else reads it.
				if withFootprint[spec] == nil {
					cp := *spec
					cp.MemoryMB = 64
					withFootprint[spec] = &cp
				}
				spec = withFootprint[spec]
			}
			tk.Spec = spec
		}
		out[family] = mt
	}
	return names, out
}

// diffDeployment is one deployment under test: the engine, the cores
// behind it (whose Evaluate exposes Score and Tie) and its completion
// entry point.
type diffDeployment struct {
	eng      engine
	cores    []*agent.Core
	complete func(jobID int, server string, at float64)
	// before, when set, runs ahead of decision i (membership churn).
	before func(i int)
}

func newDiffDeployment(shape Shape, h diffHeuristic, mk func() sched.Scheduler, sync bool, servers []string) (*diffDeployment, error) {
	const seed, width = 11, 4
	coreConfig := func() agent.Config {
		return agent.Config{Scheduler: mk(), Seed: seed, HTMSync: sync, Admission: true}
	}
	switch shape {
	case ShapeCore:
		core, err := agent.New(coreConfig())
		if err != nil {
			return nil, err
		}
		for _, n := range servers {
			core.AddServer(n)
		}
		return &diffDeployment{eng: core, cores: []*agent.Core{core},
			complete: func(id int, s string, at float64) { core.Complete(id, s, at) }}, nil
	case ShapeCluster:
		cl, err := cluster.New(cluster.WithShards(width), cluster.WithSeed(seed),
			cluster.WithSchedulerFactory(func() (sched.Scheduler, error) { return mk(), nil }),
			cluster.WithPolicy(cluster.LeastLoaded()), cluster.WithHTMSync(sync), cluster.WithAdmission(true))
		if err != nil {
			return nil, err
		}
		for _, n := range servers {
			cl.AddServer(n)
		}
		d := &diffDeployment{eng: cl, complete: func(id int, s string, at float64) { cl.Complete(id, s, at) }}
		for i := 0; i < cl.NumShards(); i++ {
			d.cores = append(d.cores, cl.Shard(i))
		}
		return d, nil
	case ShapeFederation:
		d := &diffDeployment{}
		members := make([]fed.Member, width)
		for i := range members {
			core, err := agent.New(coreConfig())
			if err != nil {
				return nil, err
			}
			d.cores = append(d.cores, core)
			members[i] = fed.NewInProcess(fmt.Sprintf("m%d", i), core)
		}
		disp, err := fed.NewWithMembers(fed.Config{Heuristic: h.base, Seed: seed,
			Policy: cluster.LeastLoaded()}, members)
		if err != nil {
			return nil, err
		}
		for _, n := range servers {
			if err := disp.AddServer(n); err != nil {
				return nil, err
			}
		}
		d.eng = disp
		d.complete = func(id int, s string, at float64) { _ = disp.Complete(id, s, at) }
		return d, nil
	}
	return nil, fmt.Errorf("no differential deployment for shape %q", shape)
}

// diffRun drives the workload and returns one line per decision. Before
// each Submit every core behind the engine evaluates the request
// without committing, which is where Score and Tie are visible; both
// runs make the same extra calls, so heuristics that draw random
// numbers stay in step. Completions arrive eight decisions late, which
// with HTMSync re-anchors the traces between decisions.
func diffRun(d *diffDeployment, reqs []agent.Request) []string {
	const lag = 8
	servers := make([]string, len(reqs))
	lines := make([]string, 0, len(reqs))
	for i, req := range reqs {
		if d.before != nil {
			d.before(i)
		}
		var b strings.Builder
		for _, core := range d.cores {
			cand, err := core.Evaluate(req)
			switch {
			case errors.Is(err, agent.ErrUnschedulable):
				b.WriteString("[none] ")
			case errors.Is(err, agent.ErrDeadlineUnmet):
				b.WriteString("[shed] ")
			case err != nil:
				fmt.Fprintf(&b, "[error %v] ", err)
			default:
				fmt.Fprintf(&b, "[%s score %b tie %b scored %v] ", cand.Server, cand.Score, cand.Tie, cand.Scored)
			}
		}
		dec, err := d.eng.Submit(req)
		switch {
		case errors.Is(err, agent.ErrDeadlineUnmet):
			b.WriteString("=> shed")
		case err != nil:
			fmt.Fprintf(&b, "=> error %v", err)
		default:
			fmt.Fprintf(&b, "=> %s predicted %b %v", dec.Server, dec.Predicted, dec.HasPrediction)
			servers[i] = dec.Server
		}
		lines = append(lines, b.String())
		if i >= lag && servers[i-lag] != "" {
			d.complete(reqs[i-lag].JobID, servers[i-lag], req.Arrival)
		}
	}
	final := d.eng.FinalPredictions()
	for _, req := range reqs {
		lines = append(lines, fmt.Sprintf("final %d: %b", req.JobID, final[req.JobID]))
	}
	return lines
}

func TestPrunedMatchesExhaustive(t *testing.T) {
	servers, workloads := diffWorkloads(t)
	for family, mt := range workloads {
		for _, shape := range []Shape{ShapeCore, ShapeCluster, ShapeFederation} {
			for _, h := range diffHeuristics() {
				if shape == ShapeFederation && h.unscored {
					continue
				}
				for _, sync := range []bool{false, true} {
					if !h.prunes && !sync {
						// Both runs take the same exhaustive path; one
						// HTM mode is enough to show nothing else moved.
						continue
					}
					t.Run(fmt.Sprintf("%s/%s/%s/sync=%v", family, shape, h.name, sync), func(t *testing.T) {
						t.Parallel()
						diffCase(t, shape, h, sync, servers, mt)
					})
				}
			}
		}
	}
}

// diffCase decides one workload on one deployment twice, as deployed and
// against the exhaustive reference, and compares the two runs line by
// line.
func diffCase(t *testing.T, shape Shape, h diffHeuristic, sync bool, servers []string, mt *task.Metatask) {
	deployed, err := newDiffDeployment(shape, h, h.deployed, sync, servers)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := newDiffDeployment(shape, h, h.exhaust, sync, servers)
	if err != nil {
		t.Fatal(err)
	}
	if cl, ok := deployed.eng.(*cluster.Cluster); ok {
		defer cl.Close()
		defer reference.eng.(*cluster.Cluster).Close()
	}
	reqs := requests(mt)
	if !h.prunes {
		// Both runs take the same code path; a prefix long enough to load
		// the pool shows that nothing else moved.
		reqs = reqs[:96]
	}
	got, want := diffRun(deployed, reqs), diffRun(reference, reqs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d differs\n  pruned     %s\n  exhaustive %s", i, got[i], want[i])
		}
	}
	if !deployed.cores[0].UsesHTM() {
		return
	}
	// The comparison means something only if the deployed run pruned and
	// the reference did not. A prediction the memo served counts as
	// evaluated: each decision's probe Evaluate leaves the memo holding
	// what the Submit that follows at the same arrival reads.
	var dep, ref htm.EvalStats
	for i := range deployed.cores {
		a, b := deployed.cores[i].HTM().EvalStats(), reference.cores[i].HTM().EvalStats()
		dep.Candidates += a.Candidates
		dep.Projections += a.Projections + a.Reused
		ref.Candidates += b.Candidates
		ref.Projections += b.Projections + b.Reused
	}
	if ref.Projections != ref.Candidates {
		t.Errorf("the reference evaluated %d of %d candidates", ref.Projections, ref.Candidates)
	}
	if pruned := dep.Projections < dep.Candidates; pruned != h.prunes {
		t.Errorf("deployed run evaluated %d of %d candidates, pruning expected: %v",
			dep.Projections, dep.Candidates, h.prunes)
	}
}

// namedExhaustiveHMCT is the reference for the candidate index: it
// evaluates exhaustively and hands the Manager a copy of the candidate
// list, which the Manager does not recognise and resolves name by name.
type namedExhaustiveHMCT struct{ *sched.HMCT }

func (e namedExhaustiveHMCT) named(ctx *sched.Context) *sched.Context {
	c := unpruned(ctx)
	c.Candidates = slices.Clone(c.Candidates)
	return c
}
func (e namedExhaustiveHMCT) Choose(ctx *sched.Context) (string, error) {
	return e.HMCT.Choose(e.named(ctx))
}
func (e namedExhaustiveHMCT) ChooseScored(ctx *sched.Context) (sched.Choice, error) {
	return e.HMCT.ChooseScored(e.named(ctx))
}

// TestIndexedMatchesNamedUnderChurn is the membership-churn case of the
// differential: the trace family's stream, its three task types priced
// on different two thirds of the pool, is decided by a core whose
// servers leave (Core.RemoveServer) and rejoin between decisions. The
// deployed core reads the HTM through its candidate index and pruning
// view; the reference resolves every candidate by name and projects them
// all. Every decision, shed, score and prediction must agree, and the
// deployed run must not have looked a single name up.
func TestIndexedMatchesNamedUnderChurn(t *testing.T) {
	servers, workloads := diffWorkloads(t)
	mt := workloads["trace"]
	partial := make(map[*task.Spec]*task.Spec)
	for _, tk := range mt.Tasks {
		if partial[tk.Spec] == nil {
			cp := *tk.Spec
			cp.CostOn = make(map[string]task.Cost)
			for i, name := range servers {
				if cost, ok := tk.Spec.Cost(name); ok && i%3 != len(partial)%3 {
					cp.CostOn[name] = cost
				}
			}
			partial[tk.Spec] = &cp
		}
		tk.Spec = partial[tk.Spec]
	}
	if len(partial) < 3 {
		t.Fatalf("%d task types, want at least 3 partial cost tables", len(partial))
	}
	h := diffHeuristic{name: "HMCT", base: "HMCT", prunes: true}
	run := func(mk func() sched.Scheduler) ([]string, htm.EvalStats) {
		d, err := newDiffDeployment(ShapeCore, h, mk, true, servers)
		if err != nil {
			t.Fatal(err)
		}
		core := d.cores[0]
		d.before = func(i int) {
			// One server away at any time from decision 10 on, a
			// different one every 20 decisions.
			if i%20 == 10 {
				if i >= 20 {
					core.AddServer(servers[(7*(i/20-1))%len(servers)])
				}
				core.RemoveServer(servers[(7*(i/20))%len(servers)])
			}
		}
		return diffRun(d, requests(mt)), core.EvalStats()
	}
	got, dep := run(func() sched.Scheduler { return sched.NewHMCT() })
	want, ref := run(func() sched.Scheduler { return namedExhaustiveHMCT{sched.NewHMCT()} })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d differs\n  indexed %s\n  named   %s", i, got[i], want[i])
		}
	}
	if dep.NameLookups != 0 || ref.NameLookups == 0 {
		t.Errorf("name lookups: deployed %d (want 0), reference %d (want some)", dep.NameLookups, ref.NameLookups)
	}
	// A prediction the memo served counts as evaluated (see diffCase).
	if dep.Projections+dep.Reused >= dep.Candidates || ref.Projections+ref.Reused != ref.Candidates {
		t.Errorf("evaluated/candidates: deployed %d/%d (want pruning), reference %d/%d (want none)",
			dep.Projections+dep.Reused, dep.Candidates, ref.Projections+ref.Reused, ref.Candidates)
	}
	changes := uint64(2*(len(mt.Tasks)/20) + len(servers))
	if dep.IndexBuilds == 0 || dep.IndexBuilds > uint64(len(partial))*changes {
		t.Errorf("%d index builds for %d task types and at most %d membership changes", dep.IndexBuilds, len(partial), changes)
	}
}
