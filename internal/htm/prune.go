package htm

import (
	"errors"
	"math"

	"casched/internal/fluid"
	"casched/internal/task"
)

// Objective names the single quantity a heuristic minimises over the
// predictions of one decision. A heuristic that declares one lets the
// Manager skip every candidate whose proven lower bound of that
// quantity already exceeds the best projected value (see "Pruning" in
// the package comment).
type Objective int

const (
	// NoObjective declares nothing: every solvable candidate is
	// projected (MP, MNI and the baselines, whose objectives have no
	// proven bound).
	NoObjective Objective = iota
	// MinCompletion is HMCT's objective: Prediction.Completion.
	MinCompletion
	// MinSumFlow is MSF's objective: Prediction.SumFlowObjective.
	MinSumFlow
)

// value returns the objective of one projected candidate.
func (o Objective) value(p *Prediction) float64 {
	if o == MinSumFlow {
		return p.SumFlowObjective()
	}
	return p.Completion
}

// Minimizer is the Manager's evaluation surface for a heuristic that
// minimises Objective and breaks ties within Tie of the minimum: its
// EvaluateAll family returns, in server-name order, a subset of the
// exhaustive predictions that holds every candidate whose objective is
// within Tie of the minimum — all such a heuristic reads — and skips
// the projection of candidates proven unable to be among them. With
// NoObjective it is the exhaustive evaluation. Everything else is the
// embedded Manager's.
type Minimizer struct {
	*Manager
	Objective Objective
	Tie       float64
}

// Minimizing returns the evaluation surface for a heuristic minimising
// obj with tie tolerance tie.
func (m *Manager) Minimizing(obj Objective, tie float64) *Minimizer {
	return &Minimizer{Manager: m, Objective: obj, Tie: tie}
}

// EvaluateAll is EvaluateAllInto with a fresh result slice.
func (z *Minimizer) EvaluateAll(id int, spec *task.Spec, arrival float64, candidates []string) ([]Prediction, error) {
	return z.EvaluateAllInto(id, spec, arrival, candidates, nil)
}

// EvaluateAllInto is Manager.EvaluateAllInto restricted to the
// candidates that can still win. The error contract is the Manager's,
// except that a candidate pruned before it was projected is never
// evaluated, so its evaluation error, if it had one, is not reported.
func (z *Minimizer) EvaluateAllInto(id int, spec *task.Spec, arrival float64, candidates []string, out []Prediction) ([]Prediction, error) {
	if z.Objective == NoObjective {
		return z.Manager.EvaluateAllInto(id, spec, arrival, candidates, out)
	}
	return z.Manager.evaluateMinimizing(z.Objective, z.Tie, id, spec, arrival, candidates, out)
}

// lowerBound returns a value the objective of placing a job of the
// given cost and footprint on the trace at the trace's current instant
// (arrival) cannot fall below; the package comment has the proof. It
// reads the live jobs in place and returns -Inf where nothing is
// proven, which the caller always projects.
func lowerBound(obj Objective, tr *serverTrace, cost task.Cost, memoryMB, arrival float64) float64 {
	// The live jobs stand at the trace's own clock, at or before the
	// arrival with no event in between, so each has since been served at
	// the rate cached with the trace's next event.
	dt := arrival - tr.sim.Now()
	if dt < 0 {
		dt = 0
	}
	return boundOver(obj, tr.sim.Live(), dt*tr.rates[task.PhaseCompute], dt*tr.rates[task.PhaseOutput], tr.mem.ramMB, cost, memoryMB, arrival)
}

// boundOver is lowerBound on a live set, the work each of its jobs has
// been served in its current phase since the state was taken, and a
// modelled RAM; an idle class is bounded over no live job.
func boundOver(obj Objective, live []*fluid.Job, servedCompute, servedOutput, ramMB float64, cost task.Cost, memoryMB, arrival float64) float64 {
	w := cost.Compute
	// shared is the CPU work the jobs computing now must receive before
	// the new job's own w seconds of CPU are through.
	shared := 0.0
	// For MinSumFlow: jobs still to use the input link, jobs still to
	// use the output link with their total output work, and the memory
	// the server would hold.
	inputs, outputs := 0, 0
	outWork, memory := 0.0, memoryMB
	for _, j := range live {
		if j.State == fluid.StateCompute {
			shared += min(j.Remaining[task.PhaseCompute]-servedCompute, w)
		}
		if obj == MinSumFlow {
			// A job receiving its input still has some left: its end is an
			// event, and none has come due.
			if j.Remaining[task.PhaseInput] > 0 {
				inputs++
			}
			if o := j.Remaining[task.PhaseOutput]; o > 0 {
				if j.State == fluid.StateOutput {
					o -= servedOutput
				}
				outputs++
				outWork += o
			}
			memory += j.MemoryMB
		}
	}
	flow := max(cost.Input+w+cost.Output, w+cost.Output+shared)
	bound := arrival + flow
	if obj == MinSumFlow {
		// Σπ ≥ -(outputs-1)·outWork holds only when the new job delays
		// no placed job on the input link and memory pressure cannot
		// change the CPU rate.
		if (cost.Input > 0 && inputs > 0) || (ramMB > 0 && memory > ramMB) {
			return math.Inf(-1)
		}
		bound = flow
		if outputs > 1 {
			bound -= float64(outputs-1) * outWork
		}
	}
	// Rounding slack: a phase ends once less than fluid's 1e-9 s of work
	// remains, which moves each later event of the projection by at most
	// that much, and every event date carries a few ulps; a completion
	// date sees O(n) events, a sum of n perturbations O(n²).
	n := float64(len(live) + 2)
	return bound - n*n*(8e-9+4e-15*(arrival+flow))
}

// walkedLocked splits the index's candidates for the pruned pass: those
// whose trace is in the clock walk are returned as entries, in name
// order (in sc.entries); of the others, sc.idle counts how many each
// class has.
func (m *Manager) walkedLocked(ix *specIndex, sc *evalScratch) []indexEntry {
	sc.idle = sc.idle[:0]
	for c := range ix.classes {
		sc.idle = append(sc.idle, ix.classes[c].size)
	}
	entries := sc.entries[:0]
	for _, tr := range m.busy {
		if k := ix.slot[tr.pos]; k >= 0 {
			entries = append(entries, ix.entries[k])
			sc.idle[ix.classOf[k]]--
		}
	}
	sc.entries = entries
	return entries
}

// evaluateMinimizing is the pruned evaluation pass, under one lock
// acquisition. The incumbent is the least objective projected so far,
// +Inf until a projection succeeds, and whatever has a bound strictly
// above the incumbent plus tie is skipped. When the list is the index's
// own, the idle candidates come first, by class in order of idle flow: a
// class is bounded over no live job and projected once, on its first idle
// member, and the prediction is copied under the name of each other idle
// member, which would be given the same arrival, cost and empty live set.
// An idle projection is the cheapest there is and lands on its bound, so
// it goes ahead of candidates whose bound may be far below their
// objective. Then the candidates whose trace is in the clock walk (every
// candidate, for any other list) are bounded one by one, the one of least
// bound is projected and then the others in name order. Projections run
// under the lock and one after the other — WithWorkers applies to the
// exhaustive pass only — since each decides whether the next is needed.
func (m *Manager) evaluateMinimizing(obj Objective, tie float64, id int, spec *task.Spec, arrival float64, candidates []string, out []Prediction) ([]Prediction, error) {
	sc := scratchPool.Get().(*evalScratch)
	m.mu.Lock()
	arrival = m.advanceLocked(arrival)
	var (
		entries []indexEntry
		errs    []error
		classes []idleClass
		offered int
	)
	ix := m.ownedLocked(spec, candidates)
	if ix != nil {
		entries, classes, offered = m.walkedLocked(ix, sc), ix.classes, len(ix.entries)
	} else {
		entries, errs = m.resolveLocked(spec, candidates, sc)
		offered = len(entries)
	}
	out = out[:0]
	incumbent, projected, replicated := math.Inf(1), 0, 0
	// try projects one candidate; only a successful projection makes an
	// incumbent. A trace nothing was ever placed on has no baseline yet.
	try := func(e *indexEntry) (Prediction, bool) {
		projected++
		m.baselineLocked(e.tr)
		p, err := project(candidateJob{cost: e.cost, clone: e.tr.liveClone(), baseline: e.tr.baseline.acquire()},
			id, spec, arrival, false)
		if err != nil {
			errs = append(errs, err)
			return p, false
		}
		if v := obj.value(&p); v < incumbent {
			incumbent = v
		}
		return p, true
	}
	for c := range classes {
		cl := &classes[c]
		if sc.idle[c] == 0 || boundOver(obj, nil, 0, 0, cl.mem.ramMB, cl.cost, spec.MemoryMB, arrival) > incumbent+tie {
			continue
		}
		k := cl.first
		for ix.entries[k].tr.busy {
			k = ix.next[k]
		}
		p, ok := try(&ix.entries[k])
		if !ok {
			continue
		}
		for ; k >= 0; k = ix.next[k] {
			if !ix.entries[k].tr.busy {
				p.Server = ix.names[k]
				out = append(out, p)
			}
		}
		replicated += int(sc.idle[c]) - 1
	}
	if cap(sc.bounds) < len(entries) {
		sc.bounds = make([]float64, len(entries))
	}
	bounds := sc.bounds[:len(entries)]
	first := 0
	for i := range entries {
		e := &entries[i]
		// The exhaustive pass refreshes a stale baseline at the first
		// evaluation after the trace changed; refreshing here at the
		// same instant, projected or not, keeps the cached projections
		// (and the drain memo ProjectedReady serves) bit-identical. An
		// idle trace needs none: advanceLocked left it the baseline a
		// refresh would compute.
		m.baselineLocked(e.tr)
		bounds[i] = lowerBound(obj, e.tr, e.cost, spec.MemoryMB, arrival)
		if bounds[i] < bounds[first] {
			first = i
		}
	}
	for k := range entries {
		// The candidate of least bound is projected first, the one it
		// displaces in its place; the result is sorted below.
		i := k
		switch k {
		case 0:
			i = first
		case first:
			i = 0
		}
		if bounds[i] > incumbent+tie {
			continue
		}
		if p, ok := try(&entries[i]); ok {
			out = append(out, p)
		}
	}
	m.mu.Unlock()
	m.considered.Add(uint64(offered))
	m.projected.Add(uint64(projected))
	m.replicated.Add(uint64(replicated))
	sortByServer(out)
	sc.put()
	return out, errors.Join(errs...)
}
