package htm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"casched/internal/fluid"
	"casched/internal/stats"
	"casched/internal/task"
)

// pruneTie is the heuristics' tie tolerance (sched.tieEps).
const pruneTie = 1e-9

// pruneCase is one decision on a generated Manager: the arriving spec,
// its arrival date and the candidate list.
type pruneCase struct {
	m          *Manager
	spec       *task.Spec
	arrival    float64
	candidates []string
}

// buildPruneCase decodes a byte string into a Manager with a history and
// one arriving task. The byte alphabet is chosen so that short inputs
// already reach the states the bound has to survive: placements at the
// same instant as the evaluation (waiting jobs), jobs caught in their
// input, compute and output phases, input and output costs as large as
// the computation (link sharing), zero-cost phases, the memory model
// with footprints that thrash and collapse the Table 2 servers, WithSync
// re-anchors and DropServer. The top two bits of the first byte make the
// pool tie-heavy, which is where idle classes are projected once and
// copied: 01 gives every server the cost drawn for the first (one
// class), 10 that cost or the next float64 up in compute (two classes
// one ulp apart in flow). Exhausted input reads as zeros.
func buildPruneCase(data []byte) pruneCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	flags := next()
	memory, sync := flags&1 != 0, flags&2 != 0
	// With the memory model the names must be Table 2 machines, whose
	// RAM the HTM then models (valette: 128+126 MB, cabestan: 192+400).
	servers := []string{"s0", "s1", "s2", "s3"}
	if memory {
		servers = []string{"artimon", "cabestan", "pulney", "valette"}
	}
	var opts []Option
	if memory {
		opts = append(opts, WithMemoryModel())
	}
	if sync {
		opts = append(opts, WithSync())
	}
	m := New(servers, opts...)

	links := []float64{0, 0, 0.5, 3, 20}
	computes := []float64{0, 1, 7, 20, 60}
	footprints := []float64{0, 0, 40, 120, 300}
	cost := func() task.Cost {
		a, b := next(), next()
		return task.Cost{Input: links[a%5], Compute: computes[b%5], Output: links[(a/5+b/5)%5]}
	}
	spec := func() *task.Spec {
		s := &task.Spec{Problem: "p", CostOn: map[string]task.Cost{}, MemoryMB: footprints[next()%5]}
		for i, name := range servers {
			c := cost()
			if ties := flags >> 6; i > 0 && (ties == 1 || ties == 2) {
				c = s.CostOn[servers[0]]
				if ties == 2 && i%2 == 1 {
					c.Compute = math.Nextafter(c.Compute, math.Inf(1))
				}
			}
			s.CostOn[name] = c
		}
		return s
	}
	gaps := []float64{0, 0, 0.25, 2, 9, 40}
	now := 0.0
	placed := 0
	for ops := next() % 32; ops > 0; ops-- {
		op := next()
		now += gaps[(op>>4)%6]
		switch op % 8 {
		case 5:
			if placed > 0 {
				_ = m.NotifyCompletion(next()%placed, now) // unknown or failed jobs: no re-anchor
			}
		case 6:
			if op>>7 == 1 {
				m.DropServer(servers[next()%4])
			}
		case 7:
			m.AdvanceTo(now)
		default:
			// A placement on a collapsed trace fails; the history simply
			// lacks that job.
			if m.Place(placed, spec(), now, servers[op%4]) == nil {
				placed++
			}
		}
	}
	now += gaps[next()%6]
	return pruneCase{m: m, spec: spec(), arrival: now, candidates: servers}
}

// boundsAt returns the lower bound lowerBound proves for every tracked
// candidate at the case's arrival, computed the way the pruned pass
// does: after the trace clock advanced, from the live jobs in place.
// It also returns, per candidate, what the pass may read from the trace's
// key before that. Under MinCompletion: the greater of the candidate's
// own keyBound and the index's stopBound. Under MinSumFlow:
// sumFlowKeyBound, for every busy trace of at most one live job; those
// with a memory model, which the pass never skips by their key, in
// thrashKeys instead of keys.
func (c pruneCase) boundsAt(obj Objective) (bounds, keys, thrashKeys map[string]float64) {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	arrival := c.m.advanceLocked(c.arrival)
	ix := c.m.indexLocked(c.spec)
	bounds, keys, thrashKeys = make(map[string]float64), make(map[string]float64), make(map[string]float64)
	for _, s := range c.candidates {
		tr, ok := c.m.traces[s]
		if !ok {
			continue
		}
		cost := c.spec.CostOn[s]
		bounds[s] = lowerBound(obj, tr, cost, c.spec.MemoryMB, arrival)
		switch {
		case obj == MinCompletion:
			keys[s] = max(keyBound(tr.key, tr.live, &cost, arrival), c.m.stopBound(ix, tr.key, arrival))
		case tr.busy && tr.live <= 1 && tr.mem.ramMB == 0:
			keys[s] = sumFlowKeyBound(tr.key, &cost, arrival)
		case tr.busy && tr.live <= 1:
			thrashKeys[s] = sumFlowKeyBound(tr.key, &cost, arrival)
		}
	}
	return bounds, keys, thrashKeys
}

// midPhase reports which active states (input, compute, output) the
// case's evaluation catches a job in strictly between two events of its
// trace: the trace's clock stands before the arrival, its next event
// after it, so the bound has to take the work served in between off what
// the job had left at the clock. Call after boundsAt, which advances the
// trace time to the arrival.
func (c pruneCase) midPhase() (states [task.NumPhases]bool) {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	for _, tr := range c.m.busy {
		if tr.sim.Now() < c.m.now-1e-3 && tr.next > c.m.now+1e-3 {
			for _, j := range tr.sim.Live() {
				if j.State >= fluid.StateInput && j.State <= fluid.StateOutput {
					states[j.State-fluid.StateInput] = true
				}
			}
		}
	}
	return states
}

// meetsContract checks a pruned result against the exhaustive
// predictions of the same candidates: in server-name order, each
// prediction bit-identical to the exhaustive one, and every candidate
// whose objective is within the tie tolerance of the minimum present, or
// stood for by an earlier-named kept prediction of the same bits.
func meetsContract(obj Objective, full, pruned []Prediction) error {
	return meetsContractTie(obj, pruneTie, full, pruned)
}

// meetsContractTie is meetsContract for a pass run with tie tolerance
// tie.
func meetsContractTie(obj Objective, tie float64, full, pruned []Prediction) error {
	best := math.Inf(1)
	byServer := make(map[string]Prediction, len(full))
	for _, p := range full {
		byServer[p.Server] = p
		best = min(best, obj.value(&p))
	}
	kept := make(map[string]bool, len(pruned))
	for i, p := range pruned {
		if i > 0 && pruned[i-1].Server >= p.Server {
			return fmt.Errorf("objective %d: pruned predictions out of server order at %d (%s, %s)", obj, i, pruned[i-1].Server, p.Server)
		}
		if want, ok := byServer[p.Server]; !ok || !samePrediction(want, p) {
			return fmt.Errorf("objective %d on %s: pruned prediction %+v, exhaustive %+v", obj, p.Server, p, want)
		}
		kept[p.Server] = true
	}
	stoodFor := func(p Prediction) bool {
		for _, q := range pruned {
			if q.Server >= p.Server {
				break
			}
			if q.Server = p.Server; samePrediction(q, p) {
				return true
			}
		}
		return false
	}
	for _, p := range full {
		if obj.value(&p) <= best+tie && !kept[p.Server] && !stoodFor(p) {
			return fmt.Errorf("objective %d: %s is within the tie tolerance of the minimum %.12g but was pruned (%+v)", obj, p.Server, best, p)
		}
	}
	return nil
}

// checkPruneCase is the property behind pruning, for both objectives:
// the key bounds never exceed the bound, the bound never exceeds the
// projected objective, and the pruned pass meets its contract both
// through the name list and through the index (where idle candidates are
// served by class and the busy traces visited in key order). It reports
// whether the MinCompletion pass over the index stopped before the end of
// the busy list.
func checkPruneCase(t *testing.T, c pruneCase) (stopped bool) {
	t.Helper()
	if err := checkBusy(c.m); err != nil {
		t.Error(err)
	}
	for _, obj := range []Objective{MinCompletion, MinSumFlow} {
		bounds, keys, thrashKeys := c.boundsAt(obj)
		for s, k := range keys {
			if b := bounds[s]; k > b {
				t.Errorf("objective %d on %s: key bound %.17g exceeds the bound %.17g", obj, s, k, b)
			}
		}
		full, _ := c.m.EvaluateAll(1<<20, c.spec, c.arrival, c.candidates)
		for _, p := range full {
			if b, v := bounds[p.Server], obj.value(&p); b > v {
				t.Errorf("objective %d on %s: bound %.12g exceeds the projected objective %.12g (%+v)",
					obj, p.Server, b, v, p)
			}
			// The key bound holds under thrash too (see "The key"), though
			// the pass reads it only without a memory model.
			if k, ok := thrashKeys[p.Server]; ok && k > obj.value(&p) {
				t.Errorf("objective %d on %s under the memory model: key bound %.17g exceeds the projected objective %.17g (%+v)",
					obj, p.Server, k, obj.value(&p), p)
			}
		}
		for i, list := range [][]string{c.candidates, c.m.Candidates(c.spec)} {
			before := c.m.EvalStats().Bounded
			pruned, _ := c.m.Minimizing(obj, pruneTie).EvaluateAll(1<<20, c.spec, c.arrival, list)
			if err := meetsContract(obj, full, pruned); err != nil {
				t.Error(err)
			}
			if obj == MinCompletion && i == 1 {
				c.m.mu.Lock()
				stopped = c.m.EvalStats().Bounded-before < uint64(len(c.m.busy))
				c.m.mu.Unlock()
			}
		}
	}
	return stopped
}

// checkBusy checks what the pruned pass's stop rule relies on: the busy
// list holds exactly the traces marked busy, in strict (key, pos) order,
// each keyed as its sim stands now (its clock plus the compute left by
// the jobs computing there, and its live count), maxLive is at least
// every live count, and every cached index counts each class's busy
// members right and points at its first idle member by name, -1 exactly
// when every member is busy.
func checkBusy(m *Manager) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	marked := 0
	for _, tr := range m.ordered {
		if tr.busy {
			marked++
		}
	}
	if marked != len(m.busy) {
		return fmt.Errorf("%d traces marked busy, %d in the busy list", marked, len(m.busy))
	}
	for i, tr := range m.busy {
		if !tr.busy || m.ordered[tr.pos] != tr {
			return fmt.Errorf("busy[%d] (%s) is not a tracked busy trace", i, tr.sim.Name())
		}
		if i > 0 && !m.busy[i-1].before(tr) {
			return fmt.Errorf("busy[%d] (%s, key %v) not after busy[%d] (%s, key %v)", i, tr.sim.Name(), tr.key, i-1, m.busy[i-1].sim.Name(), m.busy[i-1].key)
		}
		key := tr.sim.Now()
		compute := 0.0
		for _, j := range tr.sim.Live() {
			if j.State == fluid.StateCompute {
				compute += j.Remaining[task.PhaseCompute]
			}
		}
		if key += compute; math.Float64bits(key) != math.Float64bits(tr.key) || int(tr.live) != len(tr.sim.Live()) {
			return fmt.Errorf("%s keyed at %v with %d live jobs, stands at %v with %d", tr.sim.Name(), tr.key, tr.live, key, len(tr.sim.Live()))
		}
		if tr.live > m.maxLive {
			return fmt.Errorf("%s holds %d live jobs, maxLive %d", tr.sim.Name(), tr.live, m.maxLive)
		}
	}
	for spec, ix := range m.index {
		counts := make([]int32, len(ix.classes))
		for _, tr := range m.busy {
			if k := ix.slot[tr.pos]; k >= 0 {
				counts[ix.classOf[k]]++
			}
		}
		if !slices.Equal(counts, ix.busy) {
			return fmt.Errorf("%s: busy members per class %v, counted %v", spec.Name(), counts, ix.busy)
		}
		for c, cl := range ix.classes {
			first := int32(-1)
			for k := cl.first; k >= 0 && first < 0; k = ix.next[k] {
				if !ix.entries[k].tr.busy {
					first = k
				}
			}
			if ix.idle[c] != first || (first < 0) != (ix.busy[c] == cl.size) {
				return fmt.Errorf("%s: class %d of %d members, %d busy, first idle member %d, pointed at %d",
					spec.Name(), c, cl.size, ix.busy[c], first, ix.idle[c])
			}
		}
	}
	return nil
}

// samePrediction compares two EvaluateAll predictions bit for bit.
func samePrediction(a, b Prediction) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Server == b.Server && a.Interfered == b.Interfered && same(a.Completion, b.Completion) &&
		same(a.Flow, b.Flow) && same(a.Perturbation, b.Perturbation)
}

// TestPruneBoundProperty runs the property over seeded random byte
// strings, long enough to fill traces with a dozen live jobs, and
// requires the cases to have met, with and without the memory model,
// jobs caught mid-phase in each active state (see midPhase).
func TestPruneBoundProperty(t *testing.T) {
	rng := stats.NewRNG(20260928)
	var caught [2][task.NumPhases]int
	var stops [2]int
	for i := 0; i < 4000; i++ {
		data := make([]byte, 24+rng.Intn(360))
		for k := range data {
			data[k] = byte(rng.Intn(256))
		}
		// Spread the four option combinations evenly.
		data[0] = byte(i)
		c := buildPruneCase(data)
		if checkPruneCase(t, c) {
			stops[data[0]&1]++
		}
		if t.Failed() {
			t.Fatalf("case %d failed: %x", i, data)
		}
		for p, met := range c.midPhase() {
			if met {
				caught[data[0]&1][p]++
			}
		}
	}
	for memory, states := range caught {
		for p, n := range states {
			if n < 200 {
				t.Errorf("memory model %d: %d cases caught a job mid-phase in state %v, want 200 of 2000", memory, n, fluid.StateInput+fluid.State(p))
			}
		}
		// A pool of four leaves the stop little to skip; TestPrunedPassLargePool
		// is where it skips most of the busy list.
		if stops[memory] < 40 {
			t.Errorf("memory model %d: the pruned pass stopped early in %d cases, want 40 of 2000", memory, stops[memory])
		}
	}
}

// TestPruneBoundOutputLink pins the case that rules out the plain flow
// bound for MSF. A (5 s of compute left, 5 s of output) and B (output
// only) would share the output link; the new job N delays A on the CPU
// until B has left the link, so B finishes 5 s earlier than without N
// and the sum-flow increase (5) is below N's own flow (10).
func TestPruneBoundOutputLink(t *testing.T) {
	on := func(c task.Cost) *task.Spec {
		return &task.Spec{Problem: "p", CostOn: map[string]task.Cost{"s": c}}
	}
	m := New([]string{"s"})
	if err := m.Place(1, on(task.Cost{Compute: 15, Output: 5}), 0, "s"); err != nil {
		t.Fatal(err)
	}
	if err := m.Place(2, on(task.Cost{Output: 15}), 5, "s"); err != nil {
		t.Fatal(err)
	}
	c := pruneCase{m: m, spec: on(task.Cost{Compute: 5}), arrival: 10, candidates: []string{"s"}}
	p, err := m.Evaluate(3, c.spec, c.arrival, "s")
	if err != nil {
		t.Fatal(err)
	}
	if p.Flow != 10 || p.Perturbation != -5 {
		t.Fatalf("flow %g, perturbation %g; want 10 and -5", p.Flow, p.Perturbation)
	}
	checkPruneCase(t, c)
}

// TestSoloSumFlowBoundTight pins the MinSumFlow bound of a trace with one
// live job j in each case of the delay d that j and the newcomer N impose
// on each other at the first station they share: on these traces no
// other station is shared, so the projected objective is N's nominal flow
// plus 2d, and the bound is that less its slack. Where j computes, the
// bound read from the trace's key is the same less its own slack.
func TestSoloSumFlowBoundTight(t *testing.T) {
	for _, tc := range []struct {
		name           string
		job            task.Cost
		placed, arrive float64
		newcomer       task.Cost
		d              float64
	}{
		// r' = 8 left at 2; N computes from 3, when j has 7 left.
		{"compute r'>I", task.Cost{Compute: 10}, 0, 2, task.Cost{Input: 1, Compute: 4, Output: 0.5}, 4},
		{"compute r'<=I", task.Cost{Compute: 10}, 0, 9, task.Cost{Input: 2, Compute: 3}, 0},
		// o' = 9 left at 1; N reaches the link at 4, when j has 6 left.
		{"output o'>I+w", task.Cost{Output: 10}, 0, 1, task.Cost{Input: 1, Compute: 2, Output: 3}, 3},
		// i' = 3 left at 1: j leaves the link at 7, N at 9, when j has 8 of
		// its 10 s of compute left.
		{"input i'<=I", task.Cost{Input: 4, Compute: 10}, 0, 1, task.Cost{Input: 5, Compute: 6, Output: 1}, 9},
		// i' = 8 left at 2: N leaves the link at 8, j at 13, when N has 5
		// of its 10 s of compute left.
		{"input i'>I", task.Cost{Input: 10, Compute: 5}, 0, 2, task.Cost{Input: 3, Compute: 10, Output: 1}, 8},
		// N computes from 2; j joins at 10, when N has 2 s left.
		{"input I=0", task.Cost{Input: 10, Compute: 5}, 0, 2, task.Cost{Compute: 10, Output: 1}, 2},
		// j is placed at the arrival and waits for its release.
		{"waiting", task.Cost{Input: 5}, 3, 3, task.Cost{Compute: 2}, 0},
	} {
		on := func(c task.Cost) *task.Spec {
			return &task.Spec{Problem: "p", CostOn: map[string]task.Cost{"s": c}}
		}
		m := New([]string{"s"})
		if err := m.Place(1, on(tc.job), tc.placed, "s"); err != nil {
			t.Fatal(err)
		}
		c := pruneCase{m: m, spec: on(tc.newcomer), arrival: tc.arrive, candidates: []string{"s"}}
		bounds, keys, _ := c.boundsAt(MinSumFlow)
		p, err := m.Evaluate(2, c.spec, c.arrival, "s")
		if err != nil {
			t.Fatal(err)
		}
		n := tc.newcomer
		v, want := p.SumFlowObjective(), n.Input+n.Compute+n.Output+2*tc.d
		if math.Abs(v-want) > 1e-12 {
			t.Errorf("%s: projected objective %.17g, want %g", tc.name, v, want)
		}
		bound := v - 9*(8e-9+4e-15*(tc.arrive+v))
		if b := bounds["s"]; math.Abs(b-bound) > 1e-12 {
			t.Errorf("%s: bound %.17g, want the objective less its slack, %.17g", tc.name, b, bound)
		}
		if tc.job.Compute > 0 && tc.job.Input == 0 {
			if k, key := keys["s"], v-16*(8e-9+4e-15*(tc.arrive+v)); math.Abs(k-key) > 1e-12 {
				t.Errorf("%s: key bound %.17g, want the objective less its slack, %.17g", tc.name, k, key)
			}
		}
		checkPruneCase(t, c)
	}
}

// TestPrunedPassSkipsProjections: on a pool where one server is idle
// and the rest are busy with long jobs, the pruned pass projects a
// handful of candidates, and the counters say so.
func TestPrunedPassSkipsProjections(t *testing.T) {
	servers := make([]string, 64)
	costs := make(map[string]task.Cost, len(servers))
	for i := range servers {
		servers[i] = string(rune('a'+i/26)) + string(rune('a'+i%26))
		costs[servers[i]] = task.Cost{Input: 0.5, Compute: 40 + float64(i%7), Output: 0.2}
	}
	spec := &task.Spec{Problem: "p", CostOn: costs}
	m := New(servers)
	for i, s := range servers[1:] {
		if err := m.Place(i, spec, 0, s); err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range []Objective{MinCompletion, MinSumFlow} {
		before := m.EvalStats()
		preds, err := m.Minimizing(obj, pruneTie).EvaluateAll(1000, spec, 10, servers)
		if err != nil {
			t.Fatal(err)
		}
		after := m.EvalStats()
		if got := after.Candidates - before.Candidates; got != 64 {
			t.Errorf("objective %d: %d candidates counted, want 64", obj, got)
		}
		if got := after.Projections - before.Projections; got != uint64(len(preds)) || got > 4 {
			t.Errorf("objective %d: %d projections for %d predictions, want the same and at most 4", obj, got, len(preds))
		}
		if len(preds) == 0 || preds[0].Server != servers[0] {
			t.Errorf("objective %d: idle server %s missing from %+v", obj, servers[0], preds)
		}
	}
}

// FuzzPruneBound runs the property on fuzzer-chosen (trace, cost) bytes.
func FuzzPruneBound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 7, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 33, 65, 129, 200, 250})
	f.Add([]byte{3, 31, 0, 9, 9, 9, 16, 8, 8, 8, 32, 7, 7, 7, 5, 0, 134, 2, 48, 6, 6, 6})
	// Tie-heavy pools (see buildPruneCase). One cost class: every server
	// idle; two of the four busy. Two classes one ulp apart: idle; with the
	// memory model, a re-anchor that empties a trace still in the clock
	// walk and a placement at the instant of the evaluation.
	f.Add([]byte{0x40, 0, 3, 0, 2, 2})
	f.Add([]byte{0x40, 2, 0x20, 0, 2, 3, 0, 0, 0, 0, 0, 0, 0x21, 0, 2, 3, 0, 0, 0, 0, 0, 0, 3, 0, 2, 2})
	f.Add([]byte{0x80, 0, 3, 0, 2, 2})
	f.Add([]byte{0x83, 3, 0x20, 3, 2, 3, 0, 0, 0, 0, 0, 0, 0x45, 0, 0x21, 3, 2, 3, 0, 0, 0, 0, 0, 0, 0, 3, 2, 2})
	// An arrival strictly between two events of a busy trace (midPhase),
	// 9 s after its clock: a job 9 s into 20 s of computation; one 9 s into
	// 20 s of input, the newcomer with no input of its own so that MSF's
	// bound is claimed; with the memory model, two jobs sharing the output
	// link.
	f.Add([]byte{0, 1, 0x00, 0, 0, 3, 0, 3, 0, 3, 0, 3, 4, 0, 0, 3, 0, 3, 0, 3, 0, 3})
	f.Add([]byte{0, 1, 0x00, 0, 4, 3, 4, 3, 4, 3, 4, 3, 4, 0, 0, 3, 0, 3, 0, 3, 0, 3})
	f.Add([]byte{1, 2, 0x00, 2, 20, 0, 20, 0, 20, 0, 20, 0, 0x20, 2, 20, 0, 20, 0, 20, 0, 20, 0, 4, 2, 0, 3, 0, 3, 0, 3, 0, 3})
	// Cases where the MinCompletion pass over the index stops before the
	// end of the busy list (checkPruneCase reports it): without and with
	// WithSync, without and with the memory model.
	f.Add([]byte{0x38, 0x42, 0xd3, 0x30, 0x64, 0x73, 0xcb, 0xeb, 0x65, 0x69, 0x7d, 0x2, 0x69, 0xd2, 0x0, 0x72, 0x6b, 0x31, 0xfa, 0x28, 0x82, 0x29, 0xc9, 0xa7, 0x2d, 0x3b, 0x78, 0x99, 0x93, 0x5d, 0x72, 0xa8, 0x76, 0xe})
	f.Add([]byte{0x1a, 0x3, 0x6b, 0xf1, 0xc, 0xce, 0xdf, 0x13, 0x77, 0x69, 0x61, 0x18, 0xde, 0xd6, 0x34, 0x18, 0xbf, 0x58, 0x3b, 0x3c, 0x93, 0xf8, 0xdf, 0x1d, 0x14, 0x68, 0x84, 0xa3, 0xf2, 0x29, 0xc, 0x3d, 0x59, 0xa3})
	f.Add([]byte{0x3d, 0x82, 0xe1, 0x44, 0xef, 0x97, 0x6a, 0xfc, 0x5, 0xab, 0x68, 0x69, 0x12, 0xbc, 0x16, 0xc6, 0xef, 0xe, 0x8d, 0x20, 0xe3, 0x53, 0x7b, 0xe6, 0x8e, 0x29, 0x95, 0xc, 0x32, 0xba, 0x1c, 0xd3, 0x9d})
	f.Add([]byte{0x13, 0x23, 0x6a, 0x8b, 0xc6, 0xa4, 0x87, 0xda, 0x93, 0x45, 0x2b, 0xe9, 0x9f, 0x21, 0xbe, 0x71, 0xb8, 0x57, 0x5e, 0x48, 0x6a, 0x1d, 0xf5, 0xef, 0x16, 0xad, 0x60, 0xa5, 0x6f, 0x56, 0xcf, 0x96, 0x97, 0xc7})
	// A busy trace with one live job and no memory model in each case of
	// the delay of soloSumFlowBound: receiving its input with i' <= I, with
	// i' > I and against I = 0; computing with r' > I and with r' <= I;
	// sending its output with o' > I+w.
	f.Add([]byte{0xb8, 0xc1, 0x1a, 0x31, 0x5e, 0x8, 0xad, 0xd8, 0x68, 0x83, 0xb8, 0xaa, 0xb7, 0x3d, 0xe, 0x1d})
	f.Add([]byte{0xd6, 0xc2, 0xff, 0x74, 0xe2, 0x77, 0x1d, 0xb3, 0x83, 0x4, 0xec, 0xba, 0xea, 0xa0, 0x4f, 0x62, 0xd6})
	f.Add([]byte{0xaa, 0x81, 0xe3, 0x5c, 0x8, 0x77, 0xb2, 0x70, 0x85, 0x64, 0x68, 0x5b, 0xd5, 0x1c, 0x64, 0xdf})
	f.Add([]byte{0xb4, 0x45, 0xc1, 0xfa, 0x9c, 0xae, 0x25, 0x8b, 0x40, 0xe4, 0x5, 0x9f, 0x28})
	f.Add([]byte{0x56, 0x1, 0x70, 0xa7, 0x1f, 0x53, 0x87, 0x15, 0x50, 0x2c, 0xc0, 0xc8, 0x9a, 0x43, 0xd1})
	f.Add([]byte{0xb6, 0x81, 0x29, 0xbd, 0xf7, 0xc4, 0x7f, 0x77, 0xa6, 0xfe, 0x44, 0xf8, 0xc3, 0x35, 0x75})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip()
		}
		checkPruneCase(t, buildPruneCase(data))
	})
}

// evaluateMinimizingRef is the pruned pass as it stood before idle
// classes, kept as the reference TestIdleClassReplication drives a twin
// Manager through: every candidate is bounded and has its baseline
// refreshed, the least bound is projected first and the rest in
// candidate order.
func (m *Manager) evaluateMinimizingRef(obj Objective, tie float64, id int, spec *task.Spec, arrival float64, candidates []string) ([]Prediction, error) {
	sc := scratchPool.Get().(*evalScratch)
	defer sc.put()
	m.mu.Lock()
	defer m.mu.Unlock()
	arrival = m.advanceLocked(arrival)
	entries, errs := m.resolveLocked(spec, candidates, sc)
	bounds := make([]float64, len(entries))
	first := 0
	for i := range entries {
		e := &entries[i]
		m.baselineLocked(e.tr)
		bounds[i] = lowerBound(obj, e.tr, e.cost, spec.MemoryMB, arrival)
		if bounds[i] < bounds[first] {
			first = i
		}
	}
	var out []Prediction
	incumbent := math.Inf(1)
	for k := range entries {
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
		e := &entries[i]
		p, err := project(candidateJob{cost: e.cost, clone: e.tr.liveClone(), baseline: e.tr.baseline},
			id, spec, arrival, false)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if v := obj.value(&p); v < incumbent {
			incumbent = v
		}
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b Prediction) int { return cmp.Compare(a.Server, b.Server) })
	return out, errors.Join(errs...)
}

// classPool is one pool flavour of TestIdleClassReplication: the server
// names and the cost class of the i-th one.
type classPool struct {
	name    string
	memory  bool
	servers []string
	class   func(i int) float64
	// replicates says whether idle servers of this pool can share a class.
	replicates bool
}

func classPools() []classPool {
	plain := make([]string, 24)
	for i := range plain {
		plain[i] = fmt.Sprintf("n%02d", i)
	}
	// With the memory model the Table 2 machines get their RAM and swap
	// (chamagne and artimon share the RAM, not the swap); the other names
	// are modelled without memory.
	mixed := append([]string{"artimon", "cabestan", "chamagne", "pulney", "spinnaker", "valette", "xrousse", "zanzibar"}, plain[:12]...)
	third := func(i int) float64 { return float64(i % 3) }
	return []classPool{
		{name: "repeated", servers: plain, class: third, replicates: true},
		{name: "distinct", servers: plain, class: func(i int) float64 { return float64(i) / 4 }},
		// Two classes whose idle flows differ by an ulp or so: both are
		// within the bound's slack of the minimum, one alone within the tie.
		{name: "ulp", servers: plain, class: func(i int) float64 { return float64(i%2) * 0x1p-48 }, replicates: true},
		{name: "repeated+memory", memory: true, servers: mixed, class: third, replicates: true},
		// One cost everywhere: with memory modelled the classes are the
		// memory configurations.
		{name: "one-cost+memory", memory: true, servers: mixed, class: func(int) float64 { return 0 }, replicates: true},
	}
}

// classSpecs returns more specs than the index caches, so the rotation
// also drops and rebuilds the classes; a few cover only part of the pool.
func classSpecs(pool classPool) []*task.Spec {
	footprints := []float64{0, 0, 40, 120, 300, 700}
	specs := make([]*task.Spec, maxIndexedSpecs+8)
	for k := range specs {
		specs[k] = &task.Spec{Problem: "class", Variant: k, CostOn: map[string]task.Cost{}, MemoryMB: footprints[k%len(footprints)]}
		for i, name := range pool.servers {
			if k%9 == 4 && i%4 == 1 {
				continue
			}
			specs[k].CostOn[name] = task.Cost{Input: 0.5 * float64(k%3), Compute: 5 + float64(k%7) + pool.class(i), Output: 0.25}
		}
	}
	return specs
}

// TestIdleClassReplication drives twin Managers through the same
// decisions, one through the pruned pass and one through the pass as it
// stood before idle classes (evaluateMinimizingRef), with an exhaustive
// evaluation on the twin at every decision and on the Manager under test
// only now and then, so that most decisions find idle traces no pass has
// touched: fluid clocks that trail, baselines never taken. Between
// decisions: placements on the winner, WithSync re-anchors (of the job
// just placed too, which empties a trace still in the clock walk),
// joins, drops, a drop and re-join. At every decision the pruned result
// meets the contract against the exhaustive predictions, and every ready
// time, predicted completion and exhaustive prediction of the two
// Managers agree bit for bit.
func TestIdleClassReplication(t *testing.T) {
	sameFloat := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, pool := range classPools() {
		for _, sync := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sync=%v", pool.name, sync), func(t *testing.T) {
				var opts []Option
				if pool.memory {
					opts = append(opts, WithMemoryModel())
				}
				if sync {
					opts = append(opts, WithSync())
				}
				start := pool.servers[:len(pool.servers)-4]
				m, twin := New(start, opts...), New(start, opts...)
				specs := classSpecs(pool)
				rng := stats.NewRNG(20)
				now := 0.0
				collapsed := 0
				for id := 0; id < 600; id++ {
					// Mostly a light pool, with spells where arrivals outrun it.
					gap := 1.5
					if id/100%2 == 1 {
						gap = 0.15
					}
					now += gap * rng.Float64()
					switch tracked := m.Servers(); rng.Intn(16) {
					case 0:
						name := pool.servers[rng.Intn(len(pool.servers))]
						m.AddServer(name)
						twin.AddServer(name)
					case 1:
						if len(tracked) > 8 {
							name := tracked[rng.Intn(len(tracked))]
							m.DropServer(name)
							twin.DropServer(name)
						}
					case 2:
						name := tracked[rng.Intn(len(tracked))]
						for _, h := range []*Manager{m, twin} {
							h.DropServer(name)
							h.AddServer(name)
						}
					}
					spec := specs[rng.Intn(len(specs))]
					obj := []Objective{MinCompletion, MinSumFlow}[id%2]

					var best Prediction
					before := m.EvalStats()
					pruned, err := m.Minimizing(obj, pruneTie).EvaluateAll(id, spec, now, m.Candidates(spec))
					after := m.EvalStats()
					ref, refErr := twin.evaluateMinimizingRef(obj, pruneTie, id, spec, now, twin.Candidates(spec))
					full, fullErr := twin.EvaluateAll(id, spec, now, twin.Candidates(spec))
					// A pruned pass reports the evaluation errors of the candidates
					// it projects, here those on collapsed traces.
					if fullErr == nil && (err != nil || refErr != nil) {
						t.Fatalf("job %d: pruned pass errors %v, %v; the exhaustive pass has none", id, err, refErr)
					}
					if fullErr != nil {
						collapsed++
					}
					if err := meetsContract(obj, full, pruned); err != nil {
						t.Fatalf("job %d: %v\n pruned %+v\n full   %+v", id, err, pruned, full)
					}
					if err := meetsContract(obj, full, ref); err != nil {
						t.Fatalf("job %d: the reference pass itself: %v", id, err)
					}
					if got := after.Projections - before.Projections + after.Reused - before.Reused; err == nil && got != uint64(len(pruned)) {
						t.Fatalf("job %d: %d projections and %d reused for %d predictions", id,
							after.Projections-before.Projections, after.Reused-before.Reused, len(pruned))
					}
					if after.Candidates-before.Candidates != uint64(len(m.Candidates(spec))) {
						t.Fatalf("job %d: %d candidates counted of %d", id, after.Candidates-before.Candidates, len(m.Candidates(spec)))
					}
					if id%7 == 3 {
						own, _ := m.EvaluateAll(id, spec, now, m.Candidates(spec))
						if !samePredictions(own, full) {
							t.Fatalf("job %d: exhaustive predictions differ after the two passes\n classes   %+v\n reference %+v", id, own, full)
						}
					}

					// Place on the winner; now and then anywhere, which is what
					// overloads a server's memory and collapses its trace.
					target := ""
					for _, p := range pruned {
						if target == "" || obj.value(&p) < obj.value(&best) {
							target, best = p.Server, p
						}
					}
					if own := m.Candidates(spec); len(own) > 0 && rng.Intn(10) == 0 {
						target = own[rng.Intn(len(own))]
					}
					if target != "" {
						errA, errB := m.Place(id, spec, now, target), twin.Place(id, spec, now, target)
						if (errA == nil) != (errB == nil) {
							t.Fatalf("job %d on %s: %v against %v", id, target, errA, errB)
						}
					}
					if old := id - rng.Intn(12); old >= 0 && rng.Intn(2) == 0 {
						errA, errB := m.NotifyCompletion(old, now), twin.NotifyCompletion(old, now)
						if (errA == nil) != (errB == nil) {
							t.Fatalf("job %d: re-anchor of %d: %v against %v", id, old, errA, errB)
						}
					}

					if err := checkBusy(m); err != nil {
						t.Fatalf("job %d: %v", id, err)
					}
					ready, twinReady := m.ProjectedReadyAll(), twin.ProjectedReadyAll()
					if len(ready) != len(twinReady) {
						t.Fatalf("job %d: %d and %d ready times", id, len(ready), len(twinReady))
					}
					for s, r := range twinReady {
						if !sameFloat(ready[s], r) {
							t.Fatalf("job %d: %s ready at %v, on the reference twin at %v", id, s, ready[s], r)
						}
					}
					for _, job := range twin.Placements() {
						a, okA := m.PredictedCompletion(job)
						b, okB := twin.PredictedCompletion(job)
						if okA != okB || !sameFloat(a, b) {
							t.Fatalf("job %d: completion of %d %v %v, on the reference twin %v %v", id, job, a, okA, b, okB)
						}
					}
				}
				st := m.EvalStats()
				if pool.replicates != (st.Replicated > 0) {
					t.Errorf("%d predictions replicated, replicates=%v", st.Replicated, pool.replicates)
				}
				if st.Projections+st.Replicated >= st.Candidates {
					t.Errorf("nothing pruned: %+v", st)
				}
				if pool.memory && collapsed == 0 {
					t.Error("no decision met a collapsed trace")
				}
			})
		}
	}
}

// TestIdleClassAnswersOnce holds the pruned pass to one prediction per
// idle class, at the pool sizes where the classes are large: 1024 and 4096
// light servers of task.Synthetic's families, with servers dropped and
// re-added and WithSync re-anchors, so that members leave the clock walk
// before and after the one that answers for their class. At every
// decision the result meets the contract, holds at most one prediction of
// an idle trace per class, and that one is the class's first idle member
// by name. A twin Manager takes the same history through the exhaustive
// pass, and both place on the first-by-name winner of their own result:
// the same server, with the same prediction and predicted completion, bit
// for bit.
func TestIdleClassAnswersOnce(t *testing.T) {
	for _, size := range []struct{ n, decisions int }{{1024, 600}, {4096, 300}} {
		n, decisions := size.n, size.decisions
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			names, specs := largePool(n, nil)
			m, twin := New(names, WithSync()), New(names, WithSync())
			rng := stats.NewRNG(34)
			now := 0.0
			var dropped []string
			served, behind := 0, 0
			for id := 0; id < decisions; id++ {
				// About a sixth of the pool busy, with spells of arrivals
				// five times faster.
				gap := 0.66 * 1024 / float64(n)
				if id/50%3 == 2 {
					gap /= 5
				}
				now += 2 * gap * rng.Float64()
				switch rng.Intn(40) {
				case 0:
					name := names[rng.Intn(len(names))]
					m.DropServer(name)
					twin.DropServer(name)
					dropped = append(dropped, name)
				case 1:
					if len(dropped) > 0 {
						m.AddServer(dropped[0])
						twin.AddServer(dropped[0])
						dropped = dropped[1:]
					}
				}
				spec := specs[rng.Intn(len(specs))]
				obj := MinCompletion
				if id%4 == 3 {
					obj = MinSumFlow
				}
				pruned, err := m.Minimizing(obj, pruneTie).EvaluateAll(id, spec, now, m.Candidates(spec))
				if err != nil {
					t.Fatalf("job %d: %v", id, err)
				}
				full, err := twin.EvaluateAll(id, spec, now, twin.Candidates(spec))
				if err != nil {
					t.Fatalf("job %d: %v", id, err)
				}
				if err := meetsContract(obj, full, pruned); err != nil {
					t.Fatalf("job %d: %v", id, err)
				}
				if err := checkBusy(m); err != nil {
					t.Fatalf("job %d: %v", id, err)
				}
				m.mu.Lock()
				ix := m.index[spec]
				answered := make(map[int32]bool)
				for _, p := range pruned {
					k := ix.slot[m.traces[p.Server].pos]
					if ix.entries[k].tr.busy {
						continue
					}
					c := ix.classOf[k]
					first := ix.classes[c].first
					for ix.entries[first].tr.busy {
						first = ix.next[first]
					}
					if answered[c] || k != first {
						m.mu.Unlock()
						t.Fatalf("job %d: %s answers for class %d, whose first idle member is %s (answered before: %v)",
							id, p.Server, c, ix.names[first], answered[c])
					}
					answered[c] = true
					served++
					if k != ix.classes[c].first {
						behind++
					}
				}
				m.mu.Unlock()

				target, want := pickWinner(obj, pruned), pickWinner(obj, full)
				i, _ := slices.BinarySearchFunc(pruned, target, func(p Prediction, s string) int { return cmp.Compare(p.Server, s) })
				j, _ := slices.BinarySearchFunc(full, want, func(p Prediction, s string) int { return cmp.Compare(p.Server, s) })
				if target != want || !samePrediction(pruned[i], full[j]) {
					t.Fatalf("job %d: the pruned pass places on %s (%+v), the exhaustive pass on %s (%+v)", id, target, pruned[i], want, full[j])
				}
				if err := m.Place(id, spec, now, target); err != nil {
					t.Fatal(err)
				}
				if err := twin.Place(id, spec, now, want); err != nil {
					t.Fatal(err)
				}
				a, _ := m.PredictedCompletion(id)
				b, _ := twin.PredictedCompletion(id)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("job %d: predicted completion %v, on the twin %v", id, a, b)
				}
				if old := id - rng.Intn(40); old >= 0 && rng.Intn(3) == 0 {
					errA, errB := m.NotifyCompletion(old, now), twin.NotifyCompletion(old, now)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("job %d: re-anchor of %d: %v against %v", id, old, errA, errB)
					}
				}
			}
			if served < decisions || behind == 0 {
				t.Errorf("%d idle predictions over %d decisions, %d behind a busy first member: the case needs both", served, decisions, behind)
			}
			t.Logf("%d idle predictions over %d decisions, %d behind a busy first member", served, decisions, behind)
		})
	}
}

// TestReadyAggregatesMatchPerTrace pins MinProjectedReady and
// ProjectedReadyAll, which answer for idle traces without reading them,
// against a loop over ProjectedReady, on the churn generator of
// TestIndexChurnDifferential, through light and saturated spells.
func TestReadyAggregatesMatchPerTrace(t *testing.T) {
	universe := churnUniverse()
	specs := churnSpecs(universe)
	m := New(universe[:10], WithSync())
	rng := stats.NewRNG(15)
	now := 0.0
	idleAnswers, busyAnswers := 0, 0
	for id := 0; id < 600; id++ {
		gap := 3.0
		if id/100%2 == 1 {
			gap = 0.3
		}
		now += gap * rng.Float64()
		switch tracked := m.Servers(); rng.Intn(8) {
		case 0:
			m.AddServer(universe[rng.Intn(len(universe))])
		case 1:
			if len(tracked) > 4 {
				m.DropServer(tracked[rng.Intn(len(tracked))])
			}
		}
		spec := specs[rng.Intn(3)]
		own := m.Candidates(spec)
		// Pruned evaluations only, so idle traces stay unread.
		if _, err := m.Minimizing(MinCompletion, pruneTie).EvaluateAll(id, spec, now, own); err != nil {
			t.Fatal(err)
		}
		if err := m.Place(id, spec, now, own[rng.Intn(len(own))]); err != nil {
			t.Fatal(err)
		}
		if old := id - rng.Intn(8); rng.Intn(3) == 0 {
			_ = m.NotifyCompletion(old, now) // on a dropped server: nothing to anchor
		}
		got, ok := m.MinProjectedReady()
		all := m.ProjectedReadyAll()
		want := math.Inf(1)
		for _, s := range m.Servers() {
			r, _ := m.ProjectedReady(s)
			want = min(want, r)
			if math.Float64bits(all[s]) != math.Float64bits(r) {
				t.Fatalf("job %d: ProjectedReadyAll[%s] = %v, ProjectedReady %v", id, s, all[s], r)
			}
		}
		if !ok || math.Float64bits(got) != math.Float64bits(want) || len(all) != len(m.Servers()) {
			t.Fatalf("job %d: MinProjectedReady %v %v, least ProjectedReady %v", id, got, ok, want)
		}
		if want == now {
			idleAnswers++
		} else {
			busyAnswers++
		}
	}
	if idleAnswers == 0 || busyAnswers == 0 {
		t.Errorf("%d decisions with an idle trace, %d without: both regimes must be met", idleAnswers, busyAnswers)
	}
}

// TestSortByServerRuns: interleaved sorted runs, more moves than the
// insertion sort's budget, come out in server order without allocating.
func TestSortByServerRuns(t *testing.T) {
	var out, want []Prediction
	for run := 0; run < 5; run++ {
		for i := run; i < 4096; i += 5 {
			out = append(out, Prediction{Server: fmt.Sprintf("sv%04d", i), Flow: float64(i)})
		}
	}
	for i := 0; i < 4096; i++ {
		want = append(want, Prediction{Server: fmt.Sprintf("sv%04d", i), Flow: float64(i)})
	}
	if allocs := testing.AllocsPerRun(1, func() { sortByServer(out) }); allocs != 0 {
		t.Errorf("sortByServer allocated %v times", allocs)
	}
	if !samePredictions(out, want) {
		t.Error("runs not merged into server order")
	}
}

// TestIdleClassClockAhead pins why a drained trace stays in the clock
// walk while its fluid clock is ahead of the trace time: the last event
// of a trace may fall within fluid's time tolerance after the advance
// that reaches it, and a job added to that trace is released at the
// trace's clock, not at its arrival, so its prediction is not the one an
// idle server of the same class gets.
func TestIdleClassClockAhead(t *testing.T) {
	cost := task.Cost{Compute: 10}
	spec := &task.Spec{Problem: "p", CostOn: map[string]task.Cost{"a": cost, "b": cost, "c": cost}}
	m := New([]string{"a", "b", "c"})
	if err := m.Place(1, spec, 0, "a"); err != nil {
		t.Fatal(err)
	}
	arrival := 10 - 5e-10
	m.AdvanceTo(arrival)
	if sim, _ := m.Sim("a"); len(sim.Live()) != 0 || sim.Now() <= arrival {
		t.Fatalf("a holds %d live jobs at %v: the case needs it drained and ahead of %v", len(sim.Live()), sim.Now(), arrival)
	}
	own := m.Candidates(spec)
	pruned, err := m.Minimizing(MinCompletion, pruneTie).EvaluateAll(2, spec, arrival, own)
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.EvaluateAll(2, spec, arrival, own)
	if err != nil {
		t.Fatal(err)
	}
	if samePrediction(full[0], Prediction{Server: "a", Completion: full[1].Completion, Flow: full[1].Flow}) {
		t.Fatal("a projects like the idle servers: the case does not distinguish them")
	}
	if err := meetsContract(MinCompletion, full, pruned); err != nil {
		t.Errorf("%v\n pruned %+v\n full   %+v", err, pruned, full)
	}
	// The next advance finds the trace behind the trace time again.
	m.AdvanceTo(11)
	if tr := m.traces["a"]; tr.busy {
		t.Error("a still in the clock walk after the trace time passed its clock")
	}
}

// TestCollapsedTraceNotReplicated: a collapsed trace holds no live job,
// yet it is no idle member of its class — it stays in the clock walk and
// is evaluated on its own, where it raises the error the exhaustive pass
// raises, and the class answers once, for its first idle member. Table 2
// has no two machines of one memory configuration, so the case is built
// by giving three traces the same one.
func TestCollapsedTraceNotReplicated(t *testing.T) {
	names := []string{"x", "y", "z"}
	m := New(names, WithMemoryModel())
	for _, name := range names {
		tr := m.traces[name]
		tr.sim = fluid.New(fluid.Config{Name: name, RAMMB: 128, SwapMB: 126, Thrash: true})
		tr.mem = memConfig{ramMB: 128, swapMB: 126, thrash: true}
	}
	on := func(memoryMB float64) *task.Spec {
		cost := task.Cost{Input: 1, Compute: 10, Output: 1}
		return &task.Spec{Problem: "p", MemoryMB: memoryMB, CostOn: map[string]task.Cost{"x": cost, "y": cost, "z": cost}}
	}
	for id := 1; id <= 2; id++ {
		if err := m.Place(id, on(150), 0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	spec := on(10)
	for _, arrival := range []float64{1, 30} {
		own := m.Candidates(spec)
		if ix := m.index[spec]; len(ix.classes) != 1 || ix.classes[0].size != 3 {
			t.Fatalf("classes %+v: the case needs the three servers in one", ix.classes)
		}
		pruned, _ := m.Minimizing(MinCompletion, pruneTie).EvaluateAll(3, spec, arrival, own)
		if sim, _ := m.Sim("x"); arrival == 1 {
			if collapsed, _ := sim.Collapsed(); !collapsed || len(sim.Live()) != 0 {
				t.Fatal("x did not collapse")
			}
		}
		full, err := m.EvaluateAll(3, spec, arrival, own)
		if err == nil || len(full) != 2 {
			t.Fatalf("exhaustive pass over a collapsed trace: %+v, %v", full, err)
		}
		if err := meetsContract(MinCompletion, full, pruned); err != nil || len(pruned) != 1 || pruned[0].Server != "y" {
			t.Errorf("arrival %v: %v\n pruned %+v\n full   %+v", arrival, err, pruned, full)
		}
	}
}
