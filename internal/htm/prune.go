package htm

import (
	"cmp"
	"errors"
	"math"
	"slices"

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
// within Tie of the minimum, or an earlier-named candidate whose
// prediction has the same bits — all such a heuristic reads, since it
// takes the first in name order among equal values — and skips the
// projection of candidates proven unable to be among them. With
// NoObjective it is the exhaustive evaluation. Everything else is the
// embedded Manager's. Construct it with Manager.Minimizing.
type Minimizer struct {
	*Manager
	Objective Objective
	Tie       float64
	// ceiling is the score of a candidate the caller already holds from
	// elsewhere, +Inf for none (see Below).
	ceiling float64
}

// ErrBeaten is what a Minimizer's EvaluateAll family answers below a
// ceiling (Minimizer.Below) when the least objective among the
// candidates exceeds ceiling + Tie. It is returned as is, never wrapped,
// so that a dispatcher compares it without allocating.
var ErrBeaten = errors.New("htm: no candidate within tie of the ceiling")

// Minimizing returns the evaluation surface for a heuristic minimising
// obj with tie tolerance tie.
func (m *Manager) Minimizing(obj Objective, tie float64) *Minimizer {
	return &Minimizer{Manager: m, Objective: obj, Tie: tie, ceiling: math.Inf(1)}
}

// Below returns z under a ceiling: the score of the best candidate a
// caller already holds from another partition of the pool. Its pass
// starts with an incumbent of ceiling + Tie instead of +Inf, so it
// projects nothing whose bound exceeds ceiling + 2·Tie, and it answers
// ErrBeaten, with no prediction, when the least objective among the
// candidates exceeds ceiling + Tie. Otherwise its result is z's (see
// "Pruning"). With NoObjective the ceiling is ignored.
func (z *Minimizer) Below(ceiling float64) Minimizer {
	b := *z
	b.ceiling = ceiling
	return b
}

// EvaluateAll is EvaluateAllInto with a fresh result slice.
func (z *Minimizer) EvaluateAll(id int, spec *task.Spec, arrival float64, candidates []string) ([]Prediction, error) {
	return z.EvaluateAllInto(id, spec, arrival, candidates, nil)
}

// EvaluateAllInto is Manager.EvaluateAllInto restricted to the
// candidates that can still win. The error contract is the Manager's,
// except that a candidate pruned before it was projected is never
// evaluated, so its evaluation error, if it had one, is not reported,
// and that below a ceiling the answer may be ErrBeaten.
func (z *Minimizer) EvaluateAllInto(id int, spec *task.Spec, arrival float64, candidates []string, out []Prediction) ([]Prediction, error) {
	if z.Objective == NoObjective {
		return z.Manager.EvaluateAllInto(id, spec, arrival, candidates, out)
	}
	return z.Manager.evaluateMinimizing(z.Objective, z.Tie, z.ceiling, id, spec, arrival, candidates, out)
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
	live := tr.sim.Live()
	b := boundOver(obj, live, dt*tr.rates[task.PhaseCompute], dt*tr.rates[task.PhaseOutput], tr.mem.ramMB, cost, memoryMB, arrival)
	if obj == MinSumFlow && len(live) == 1 {
		b = max(b, soloSumFlowBound(live[0], dt, &tr.rates, tr.mem.ramMB, cost, memoryMB, arrival))
	}
	return b
}

// soloSumFlowBound is the MinSumFlow bound on a trace whose one live job
// is j, served for dt at the given rates since the trace's clock: the
// newcomer's nominal flow plus twice the delay d that it and j
// impose on each other at the first station they share (the package
// comment has the proof). It is -Inf under memory pressure: a modelled RAM
// that cannot hold both footprints.
func soloSumFlowBound(j *fluid.Job, dt float64, rates *[task.NumPhases]float64, ramMB float64, cost task.Cost, memoryMB, arrival float64) float64 {
	if ramMB > 0 && j.MemoryMB+memoryMB > ramMB {
		return math.Inf(-1)
	}
	in, w := cost.Input, cost.Compute
	d := 0.0
	switch j.State {
	case fluid.StateInput:
		i, r := j.Remaining[task.PhaseInput]-dt*rates[task.PhaseInput], j.Remaining[task.PhaseCompute]
		if i <= in {
			d = i + min(max(r-in+i, 0), w)
		} else {
			d = in + min(max(w-i+in, 0), r)
		}
	case fluid.StateCompute:
		d = min(max(j.Remaining[task.PhaseCompute]-dt*rates[task.PhaseCompute]-in, 0), w)
	case fluid.StateOutput:
		d = min(max(j.Remaining[task.PhaseOutput]-dt*rates[task.PhaseOutput]-in-w, 0), cost.Output)
	}
	flow := in + w + cost.Output + 2*d
	// boundOver's slack at one live job.
	return flow - 9*(8e-9+4e-15*(arrival+flow))
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

// keyBound is the MinCompletion bound of a trace read from its key alone:
// no trace with CPU-free date key and at most n live jobs has a
// lowerBound below it for a job of the given cost arriving at arrival (the
// package comment has the proof). It rises with key and each phase's cost
// and falls with n, which is what lets the pruned pass stop.
func keyBound(key float64, n int32, cost *task.Cost, arrival float64) float64 {
	w, o := cost.Compute, cost.Output
	x := max(arrival+cost.Input+w+o, w+o+min(key-fluid.TimeEps, arrival+w))
	// lowerBound's slack for n+1 live jobs: one more than the trace holds,
	// whose share covers the rounding of the key's own sum.
	s := float64(n + 3)
	return x - s*s*(8e-9+4e-15*math.Abs(x))
}

// sumFlowKeyBound is the MinSumFlow bound of a trace with no memory model
// and at most one live job, read from its key alone: no such trace with
// CPU-free date key has a lowerBound below it for a job of the given cost
// arriving at arrival (the package comment has the proof).
func sumFlowKeyBound(key float64, cost *task.Cost, arrival float64) float64 {
	in, w := cost.Input, cost.Compute
	x := in + w + cost.Output + 2*min(max(key-fluid.TimeEps-arrival-in, 0), w)
	// keyBound's slack at one live job.
	return x - 16*(8e-9+4e-15*(arrival+x))
}

// stopBound is the keyBound below which no busy trace at or after this
// key can fall, for any candidate of the index: taken at the index's least
// cost of each phase and the busy list's largest live count.
func (m *Manager) stopBound(ix *specIndex, key, arrival float64) float64 {
	return keyBound(key, m.maxLive, &ix.least, arrival)
}

// candidateBound is a candidate the pruned pass bounded one by one and may
// project: its index in the entries the pass reads, and its bound.
type candidateBound struct {
	k     int32
	bound float64
}

// evaluateMinimizing is the pruned evaluation pass, under one lock
// acquisition. The incumbent is the least objective projected so far,
// or ceiling + tie if that is less (+Inf without a ceiling), and
// whatever has a bound strictly above the incumbent plus tie is
// skipped. A pass whose least projected objective exceeds ceiling + tie
// answers ErrBeaten. When the list is the index's
// own, the idle candidates come first, by class in order of idle flow: a
// class is bounded over no live job and projected once, on its first idle
// member by name, whose prediction answers for each later idle member,
// which would be given the same arrival, cost and empty live set.
// An idle projection is the cheapest there is and lands on its bound, so
// it goes ahead of candidates whose bound may be far below their
// objective. Then the busy traces are visited in key order: under
// MinCompletion the visit stops at the first whose stopBound is out, and
// skips a candidate whose own keyBound is out before reading its jobs;
// under MinSumFlow it visits every one, and skips a trace with no memory
// model and at most one live job whose sumFlowKeyBound is out before
// reading its jobs. Any other list is visited
// candidate by candidate. A visited candidate is bounded exactly and kept
// unless that rules it out; of those kept, the one of least bound is
// projected first and then the others in candidate order, each unless the
// incumbent has come within its bound. Projections run under the lock and
// one after the other, since each decides whether the next is needed; a
// candidate the memo holds is served from it (see "Evaluation core").
func (m *Manager) evaluateMinimizing(obj Objective, tie, ceiling float64, id int, spec *task.Spec, arrival float64, candidates []string, out []Prediction) ([]Prediction, error) {
	sc := scratchPool.Get().(*evalScratch)
	m.mu.Lock()
	arrival = m.advanceLocked(arrival)
	var (
		entries []indexEntry
		errs    []error
	)
	out = out[:0]
	incumbent, least := ceiling+tie, math.Inf(1)
	offered, projected, reused, replicated, visited := 0, 0, 0, 0, 0
	m.stash.begin(spec, id, arrival)
	ix := m.ownedLocked(spec, candidates)
	memo, read := m.memoFor(spec, id, arrival)
	// try predicts entry k; only a successful prediction makes an
	// incumbent, and is stashed while it is within reach of it. A trace
	// nothing was ever placed on has no baseline yet, and a stale one is
	// refreshed here, at the first projection since the trace changed: by
	// the split invariance of "Trace clock" that is the bits a refresh at
	// any other instant gives.
	try := func(k int32) (Prediction, bool) {
		e := &entries[k]
		p, clone, hit, err := m.predictLocked(memo, read, e, id, spec, arrival)
		if hit {
			reused++
		} else {
			projected++
		}
		if err != nil {
			errs = append(errs, err)
			return p, false
		}
		v := obj.value(&p)
		if v < least {
			least = v
		}
		if v < incumbent {
			incumbent = v
		}
		m.stash.keep(e.tr, e.cost, clone, p.Completion, v, incumbent+tie)
		return p, true
	}
	kept := sc.kept[:0]
	// exact bounds entry k from its live jobs and keeps it unless the bound
	// rules it out.
	exact := func(k int32) {
		e := &entries[k]
		if b := lowerBound(obj, e.tr, e.cost, spec.MemoryMB, arrival); b <= incumbent+tie {
			kept = append(kept, candidateBound{k: k, bound: b})
		}
	}
	if ix == nil {
		entries, errs = m.resolveLocked(spec, candidates, sc)
		offered, visited = len(entries), len(entries)
		for k := range entries {
			exact(int32(k))
		}
	} else {
		entries, offered = ix.entries, len(ix.entries)
		for c := range ix.classes {
			cl := &ix.classes[c]
			k := ix.idle[c]
			if k < 0 || boundOver(obj, nil, 0, 0, cl.mem.ramMB, cl.cost, spec.MemoryMB, arrival) > incumbent+tie {
				continue
			}
			if p, ok := try(k); ok {
				out = append(out, p)
				replicated += int(cl.size-ix.busy[c]) - 1
			}
		}
		if obj == MinSumFlow {
			for _, tr := range m.busy {
				visited++
				k := ix.slot[tr.pos]
				if k < 0 || tr.live <= 1 && tr.mem.ramMB == 0 && sumFlowKeyBound(tr.key, &entries[k].cost, arrival) > incumbent+tie {
					continue
				}
				exact(k)
			}
		} else {
			for _, tr := range m.busy {
				visited++
				k := ix.slot[tr.pos]
				if m.stopBound(ix, tr.key, arrival) > incumbent+tie {
					break
				}
				if k >= 0 && keyBound(tr.key, tr.live, &entries[k].cost, arrival) > incumbent+tie {
					continue
				}
				if k >= 0 {
					exact(k)
				}
			}
		}
	}
	if len(kept) > 0 {
		// The candidate of least bound goes first, the first in candidate
		// order of those tied. Under MinCompletion the few others follow in
		// candidate order, which projects no more of them than that order
		// always did; under MinSumFlow, which keeps many busy candidates
		// under load, they follow in the order visited, which projects as
		// few and saves sorting them. The result is sorted below.
		first := 0
		for i, c := range kept {
			if least := kept[first]; c.bound < least.bound || c.bound == least.bound && c.k < least.k {
				first = i
			}
		}
		kept[0], kept[first] = kept[first], kept[0]
		if obj == MinCompletion {
			slices.SortFunc(kept[1:], func(a, b candidateBound) int { return cmp.Compare(a.k, b.k) })
		}
	}
	for _, c := range kept {
		if c.bound > incumbent+tie {
			continue
		}
		if p, ok := try(c.k); ok {
			out = append(out, p)
		}
	}
	sc.kept = kept
	m.mu.Unlock()
	m.considered.Add(uint64(offered))
	m.projected.Add(uint64(projected))
	m.reused.Add(uint64(reused))
	m.replicated.Add(uint64(replicated))
	m.bounded.Add(uint64(visited))
	sc.put()
	if least > ceiling+tie {
		// Nothing here passes the candidate the ceiling came from, and a
		// candidate that failed to project passes nothing.
		m.beaten.Add(1)
		return out[:0], ErrBeaten
	}
	sortByServer(out)
	return out, errors.Join(errs...)
}

// passStash is what the last pruned pass projected for the candidates
// within tie of its minimum, the only ones a Minimizer heuristic places
// on, kept under Manager.mu for the Place that commits one of them: the
// pass's spec, job id and arrival, and one entry per candidate. The pass
// begins it afresh and keeps a projection only while its objective is
// within tie of the incumbent, so it never holds more than the tie set of
// one pass and the projections the incumbent has not yet ruled out.
type passStash struct {
	spec    *task.Spec
	id      int
	arrival float64
	entries []stashEntry
	// reach is the least incumbent plus tie the entries were trimmed to.
	reach float64
}

// stashEntry is one candidate the pass projected, with its objective. On
// a busy trace it is the run clone, taken at the trace's generation gen;
// on an idle trace (tr nil) it is the class key and the new job's
// completion date, +Inf if the projection lost it: every idle trace of the
// class would project those bits (see "Pruning").
type stashEntry struct {
	tr         *serverTrace
	gen        uint64
	clone      *fluid.Sim
	class      classKey
	completion float64
	value      float64
}

// begin empties the stash for a pass of job id with the given spec at the
// given (clamped) arrival.
func (st *passStash) begin(spec *task.Spec, id int, arrival float64) {
	st.reset()
	st.spec, st.id, st.arrival, st.reach = spec, id, arrival, math.Inf(1)
}

// reset empties the stash and hands its clones back to the pool.
func (st *passStash) reset() {
	for i := range st.entries {
		if c := st.entries[i].clone; c != nil {
			putSim(c)
		}
	}
	clear(st.entries)
	st.entries = st.entries[:0]
	st.spec = nil
}

// keep stashes what the pass predicted on tr, a candidate of the given
// cost: the clone run to idle (nil when the memo served it) and the new
// job's completion, of objective value. reach is the incumbent plus tie: a
// projection beyond it is never placed on by a Minimizer heuristic, so it
// is not kept, and those the incumbent has moved beyond are dropped. A
// busy trace the memo served has no clone to install, so it is not kept
// either: the trace refreshes its baseline at its next read.
func (st *passStash) keep(tr *serverTrace, cost task.Cost, clone *fluid.Sim, completion, value, reach float64) {
	if reach < st.reach {
		st.trim(reach)
	}
	switch {
	case value > reach:
	case !tr.busy:
		st.entries = append(st.entries, stashEntry{value: value, class: classKey{cost: cost, mem: tr.mem}, completion: completion})
	case clone != nil:
		st.entries = append(st.entries, stashEntry{value: value, tr: tr, gen: tr.gen, clone: clone})
		return // the entry owns the clone
	}
	if clone != nil {
		putSim(clone)
	}
}

// trim drops the entries whose objective exceeds reach.
func (st *passStash) trim(reach float64) {
	st.reach = reach
	kept := st.entries[:0]
	for _, e := range st.entries {
		if e.value <= reach {
			kept = append(kept, e)
		} else if e.clone != nil {
			putSim(e.clone)
		}
	}
	clear(st.entries[len(kept):])
	st.entries = kept
}

// take returns, as a fresh baseline, what the pass projected for placing
// job id with the given spec at the given (clamped) arrival on tr, a
// candidate of the given cost that was idle before the placement, or nil
// when the pass did not project exactly that. Called by Place after it
// added the job and before it bumps the generation. A busy trace matches
// on its generation: nothing has changed it since. An idle trace matches
// on its class key, since it held no live job: any idle trace of the class
// projects the same bits. The completion dates are the projection's own,
// the bits a refresh of the placed trace computes.
func (st *passStash) take(tr *serverTrace, idle bool, cost task.Cost, spec *task.Spec, id int, arrival float64) *baselineSet {
	if st.spec != spec || st.id != id || st.arrival != arrival {
		return nil
	}
	for i := range st.entries {
		e := &st.entries[i]
		switch {
		case e.tr != nil && e.tr == tr && e.gen == tr.gen:
			b := newBaselineSet()
			completionsInto(e.clone, b.m)
			return b
		case e.tr == nil && idle && e.class == (classKey{cost: cost, mem: tr.mem}):
			b := newBaselineSet()
			if !math.IsInf(e.completion, 1) {
				b.m[id] = e.completion
			}
			return b
		}
	}
	return nil
}
