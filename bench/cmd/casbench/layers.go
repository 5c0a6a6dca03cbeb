package main

import (
	"math"
	"time"

	"casched/internal/agent"
	"casched/internal/fair"
	"casched/internal/fluid"
	"casched/internal/task"
)

// probeID is a job id no stream reaches; probes that must not collide
// with placed jobs count up from it.
const probeID = 1 << 40

// layerProbes are the per-layer figures measured by calling one layer
// directly, outside any decision, on the state a traced pass left.
type layerProbes struct {
	FluidCloneNS      float64
	FluidRunToIdleNS  float64
	FluidProjectNS    float64
	FluidEventsPerPrj float64
	HTMPlaceUS        float64
	HTMLiveJobsPerSrv float64
	HTMTraceJobsTotal float64
	AgentEvaluateUS   float64
	AgentCommitUS     float64
	FairPickNS        float64
	FairChargeNS      float64
	FairTakeNS        float64
}

// occupancy returns the mean number of live jobs per server trace and
// the total number of job records the traces hold. Call only while no
// decision is in flight: htm.Manager.Sim is not locked.
func occupancy(cores []*agent.Core) (livePerServer, jobsTotal float64) {
	servers := 0
	for _, c := range cores {
		for _, name := range c.Servers() {
			if sim, ok := c.HTM().Sim(name); ok {
				livePerServer += float64(sim.ActiveCount())
				jobsTotal += float64(len(sim.Jobs()))
				servers++
			}
		}
	}
	if servers > 0 {
		livePerServer /= float64(servers)
	}
	return livePerServer, jobsTotal
}

// probeFluid times one candidate projection — clone the live trace,
// add the candidate, run to idle — on every server's trace as the
// workload left it, and counts the events a projection steps through.
// Whole sweeps over the servers are timed, so the clock's own cost is
// spread over hundreds of projections; cloning is timed in sweeps of its
// own and running to idle is the difference. Means over the servers,
// since a decision pays the sum.
func probeFluid(cores []*agent.Core, spec *task.Spec, p *layerProbes) {
	const reps = 8
	type target struct {
		sim  *fluid.Sim
		cost task.Cost
	}
	var targets []target
	for _, c := range cores {
		for _, name := range c.Servers() {
			sim, ok := c.HTM().Sim(name)
			cost, solves := spec.Cost(name)
			if ok && solves {
				targets = append(targets, target{sim, cost})
			}
		}
	}
	if len(targets) == 0 {
		return
	}
	var dst fluid.Sim
	var clone, project time.Duration
	events := 0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, t := range targets {
			t.sim.CloneLiveInto(&dst)
		}
		t1 := time.Now()
		for _, t := range targets {
			t.sim.CloneLiveInto(&dst)
			if dst.Add(probeID, t.sim.Now(), t.cost, spec.MemoryMB) == nil {
				dst.RunToIdleQuiet(math.Inf(1))
			}
		}
		clone += t1.Sub(t0)
		project += time.Since(t1)
	}
	for _, t := range targets {
		t.sim.CloneLiveInto(&dst)
		if dst.Add(probeID, t.sim.Now(), t.cost, spec.MemoryMB) == nil {
			events += len(dst.RunToIdle(math.Inf(1)))
		}
	}
	n := float64(reps * len(targets))
	p.FluidCloneNS = float64(clone) / n
	p.FluidProjectNS = float64(project) / n
	p.FluidRunToIdleNS = p.FluidProjectNS - p.FluidCloneNS
	p.FluidEventsPerPrj = float64(events) / float64(len(targets))
}

// probeAgent times Core.Evaluate and Core.Commit as separate calls (the
// halves a dispatch layer drives) on the first core, then HTM().Place
// alone. The placements are real, so this runs last.
func probeAgent(cores []*agent.Core, spec *task.Spec, at float64, p *layerProbes) {
	const n = 128
	core := cores[0]
	var ev, cm, pl []float64
	for i := 0; i < n; i++ {
		req := agent.Request{JobID: probeID + 1 + i, TaskID: probeID + 1 + i, Spec: spec, Arrival: at}
		t0 := time.Now()
		cand, err := core.Evaluate(req)
		t1 := time.Now()
		if err != nil {
			continue
		}
		if _, err := core.Commit(req, cand.Server); err != nil {
			continue
		}
		t2 := time.Now()
		ev = append(ev, float64(t1.Sub(t0))/1e3)
		cm = append(cm, float64(t2.Sub(t1))/1e3)
	}
	servers := core.Servers()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := core.HTM().Place(probeID+1+n+i, spec, at, servers[i%len(servers)])
		if err == nil {
			pl = append(pl, float64(time.Since(t0))/1e3)
		}
	}
	p.AgentEvaluateUS, p.AgentCommitUS, p.HTMPlaceUS = percentile(ev, 0.5), percentile(cm, 0.5), percentile(pl, 0.5)
}

// probeFair times the fair-share ledger and the intake bucket with the
// workload's three tenants.
func probeFair(p *layerProbes) {
	const n = 200000
	l := fair.NewLedger(tenantShares)
	paths := tenants[:]
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.Charge(tenants[i%3], 100)
	}
	t1 := time.Now()
	picked := 0
	for i := 0; i < n; i++ {
		picked += len(l.Pick(paths))
	}
	t2 := time.Now()
	b := fair.NewTokenBucket(1e6, 1e6)
	taken := 0
	for i := 0; i < n; i++ {
		if b.Take(float64(i)) {
			taken++
		}
	}
	t3 := time.Now()
	if picked == 0 || taken == 0 {
		return
	}
	p.FairChargeNS = float64(t1.Sub(t0)) / n
	p.FairPickNS = float64(t2.Sub(t1)) / n
	p.FairTakeNS = float64(t3.Sub(t2)) / n
}
