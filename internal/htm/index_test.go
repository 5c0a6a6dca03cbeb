package htm

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"casched/internal/stats"
	"casched/internal/task"
)

// churnUniverse is the name space membership churn draws from.
func churnUniverse() []string {
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	return names
}

// churnSpecs returns specs whose cost tables cover different, partial
// parts of the universe: the even servers, the first ten, all but two,
// and a single one.
func churnSpecs(universe []string) []*task.Spec {
	covers := []func(i int) bool{
		func(i int) bool { return i%2 == 0 },
		func(i int) bool { return i < 10 },
		func(i int) bool { return i != 3 && i != 12 },
		func(i int) bool { return i == 5 },
	}
	specs := make([]*task.Spec, len(covers))
	for k, covered := range covers {
		specs[k] = &task.Spec{Problem: "churn", Variant: k, CostOn: map[string]task.Cost{}}
		for i, name := range universe {
			if covered(i) {
				specs[k].CostOn[name] = task.Cost{Input: 0.5 * float64(k), Compute: 8 + float64((3*i+5*k)%7), Output: 0.25}
			}
		}
	}
	return specs
}

func samePredictions(a, b []Prediction) bool {
	return slices.EqualFunc(a, b, samePrediction)
}

// checkIndexedDecision evaluates one arrival through the indexed entry
// (the slice Candidates hands out), through name lists (a copy, a
// shuffle, a subset, the whole pool, one with an untracked name) and
// through EvaluateFull, and requires the same predictions everywhere,
// name lookups only where names were given, and the admission test to
// agree with ProjectedReady. It returns the exhaustive predictions.
func checkIndexedDecision(t *testing.T, m *Manager, rng *stats.RNG, id int, spec *task.Spec, now float64) []Prediction {
	t.Helper()
	own := m.Candidates(spec)
	var want []string
	for _, s := range m.Servers() {
		if _, ok := spec.Cost(s); ok {
			want = append(want, s)
		}
	}
	if !slices.Equal(own, want) {
		t.Fatalf("job %d: Candidates = %v, the pool's solvers are %v", id, own, want)
	}
	z := m.Minimizing(MinCompletion, pruneTie)

	st := m.EvalStats()
	all, err := m.EvaluateAll(id, spec, now, own)
	if err != nil {
		t.Fatalf("job %d: indexed EvaluateAll: %v", id, err)
	}
	pruned, err := z.EvaluateAll(id, spec, now, own)
	if err != nil {
		t.Fatalf("job %d: indexed pruned pass: %v", id, err)
	}
	if got := m.EvalStats().NameLookups - st.NameLookups; got != 0 {
		t.Errorf("job %d: the indexed entry looked %d names up", id, got)
	}
	if len(all) != len(own) {
		t.Fatalf("job %d: %d predictions for %d candidates", id, len(all), len(own))
	}

	st = m.EvalStats()
	named := slices.Clone(own)
	namedAll, err := m.EvaluateAll(id, spec, now, named)
	if err != nil {
		t.Fatalf("job %d: named EvaluateAll: %v", id, err)
	}
	namedPruned, err := z.EvaluateAll(id, spec, now, named)
	if err != nil {
		t.Fatalf("job %d: named pruned pass: %v", id, err)
	}
	if got := m.EvalStats().NameLookups - st.NameLookups; got != uint64(2*len(named)) {
		t.Errorf("job %d: two named passes over %d candidates counted %d name lookups", id, len(named), got)
	}
	if !samePredictions(all, namedAll) {
		t.Fatalf("job %d: indexed and named entries disagree\n indexed %+v\n named   %+v", id, all, namedAll)
	}
	// The two pruned passes go through the candidates in different orders
	// (idle classes against name by name), so they may differ in what they
	// return beyond the contract; both must meet it.
	for entry, got := range map[string][]Prediction{"indexed": pruned, "named": namedPruned} {
		if err := meetsContract(MinCompletion, all, got); err != nil {
			t.Fatalf("job %d: %s pruned pass: %v", id, entry, err)
		}
	}

	for _, p := range all {
		full, err := m.EvaluateFull(id, spec, now, p.Server)
		if err != nil {
			t.Fatalf("job %d: EvaluateFull(%s): %v", id, p.Server, err)
		}
		if math.Abs(p.Completion-full.Completion) > 1e-9 || math.Abs(p.Perturbation-full.Perturbation) > 1e-9 ||
			p.Interfered != full.Interfered {
			t.Errorf("job %d on %s: indexed %+v, full replay %+v", id, p.Server, p, full)
		}
	}

	shuffled := slices.Clone(own)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got, err := m.EvaluateAll(id, spec, now, shuffled); err != nil || !samePredictions(got, all) {
		t.Errorf("job %d: shuffled list: %+v, %v; want %+v", id, got, err, all)
	}
	if got, err := z.EvaluateAll(id, spec, now, m.Servers()); err != nil || meetsContract(MinCompletion, all, got) != nil {
		t.Errorf("job %d: whole pool, solvers or not: %+v, %v (%v)", id, got, err, meetsContract(MinCompletion, all, got))
	}
	var subset []string
	var wantSubset []Prediction
	for i, s := range own {
		if i%2 == 1 {
			subset = append(subset, s)
			wantSubset = append(wantSubset, all[i])
		}
	}
	if got, err := m.EvaluateAll(id, spec, now, subset); err != nil || !samePredictions(got, wantSubset) {
		t.Errorf("job %d: subset %v: %+v, %v; want %+v", id, subset, got, err, wantSubset)
	}
	// A prefix of the index shares its first element but not its length.
	if got, err := m.EvaluateAll(id, spec, now, own[:len(own)-1]); err != nil || !samePredictions(got, all[:len(all)-1]) {
		t.Errorf("job %d: prefix of the index: %+v, %v; want %+v", id, got, err, all[:len(all)-1])
	}
	for _, eval := range []func([]string) ([]Prediction, error){
		func(c []string) ([]Prediction, error) { return m.EvaluateAll(id, spec, now, c) },
		func(c []string) ([]Prediction, error) { return z.EvaluateAll(id, spec, now, c) },
	} {
		got, err := eval(append(slices.Clone(own), "ghost"))
		if err == nil || !strings.Contains(err.Error(), `unknown server "ghost"`) {
			t.Errorf("job %d: untracked name not reported: %v", id, err)
		}
		if len(got) == 0 || len(got) > len(all) {
			t.Errorf("job %d: %d predictions beside the untracked name", id, len(got))
		}
	}

	earliest := math.Inf(1)
	for _, s := range own {
		ready, _ := m.ProjectedReady(s)
		earliest = min(earliest, max(ready, now)+spec.CostOn[s].Total())
	}
	for _, deadline := range []float64{earliest - 1e-6, earliest, earliest + 5} {
		want := earliest <= deadline
		if got := m.MeetsDeadline(spec, now, deadline, own); got != want {
			t.Errorf("job %d: indexed MeetsDeadline(%g) = %v with earliest finish %g", id, deadline, got, earliest)
		}
		if got := m.MeetsDeadline(spec, now, deadline, shuffled); got != want {
			t.Errorf("job %d: named MeetsDeadline(%g) = %v with earliest finish %g", id, deadline, got, earliest)
		}
	}
	return all
}

// TestIndexChurnDifferential drives placements, re-anchors and
// membership churn (joins, drops, a drop and re-join of the same name)
// between decisions over specs with different partial cost tables, and
// at every decision holds the indexed entry against the name-by-name
// entry and the full-replay reference.
func TestIndexChurnDifferential(t *testing.T) {
	universe := churnUniverse()
	specs := churnSpecs(universe)
	for _, sync := range []bool{false, true} {
		var opts []Option
		if sync {
			opts = append(opts, WithSync())
		}
		m := New(universe[:10], opts...)
		rng := stats.NewRNG(14)
		now := 0.0
		for id := 0; id < 300; id++ {
			now += 2 * rng.Float64()
			switch tracked := m.Servers(); rng.Intn(8) {
			case 0:
				m.AddServer(universe[rng.Intn(len(universe))])
			case 1:
				if len(tracked) > 4 {
					m.DropServer(tracked[rng.Intn(len(tracked))])
				}
			case 2:
				// Leave and come back: the trace is a fresh one.
				name := tracked[rng.Intn(len(tracked))]
				m.DropServer(name)
				m.AddServer(name)
			}
			spec := specs[rng.Intn(len(specs))]
			if len(m.Candidates(spec)) == 0 {
				if preds, err := m.EvaluateAll(id, spec, now, m.Candidates(spec)); len(preds) != 0 || err != nil {
					t.Fatalf("job %d: no solver tracked, got %+v, %v", id, preds, err)
				}
				continue
			}
			all := checkIndexedDecision(t, m, rng, id, spec, now)
			if t.Failed() {
				t.Fatalf("sync=%v: decision %d failed", sync, id)
			}
			best := all[0]
			for _, p := range all {
				if p.Completion < best.Completion {
					best = p
				}
			}
			if err := m.Place(id, spec, now, best.Server); err != nil {
				t.Fatal(err)
			}
			if old := id - 6; old >= 0 && rng.Intn(3) == 0 {
				_ = m.NotifyCompletion(old, now) // unplaced or dropped: nothing to anchor
			}
		}
	}
}

// TestIndexNotServedStale: a candidate list taken before a server left
// is, afterwards, a list of names like any other. The server that left
// is reported unknown; one that left and came back is evaluated on its
// new, idle trace, not on the one the index once pointed at.
func TestIndexNotServedStale(t *testing.T) {
	spec := &task.Spec{Problem: "p", CostOn: map[string]task.Cost{
		"a": {Compute: 10}, "b": {Compute: 10}, "c": {Compute: 10},
	}}
	m := New([]string{"a", "b", "c"})
	stale := m.Candidates(spec)
	if err := m.Place(1, spec, 0, "b"); err != nil {
		t.Fatal(err)
	}
	m.DropServer("b")
	m.AddServer("b")
	m.DropServer("c")

	before := m.EvalStats()
	preds, err := m.Minimizing(MinCompletion, pruneTie).EvaluateAll(2, spec, 1, stale)
	if err == nil || !strings.Contains(err.Error(), `unknown server "c"`) {
		t.Errorf("dropped server not reported: %v", err)
	}
	if got := m.EvalStats().NameLookups - before.NameLookups; got != 3 {
		t.Errorf("stale list resolved %d names, want 3", got)
	}
	if len(preds) != 2 || preds[0].Server != "a" || preds[1].Server != "b" {
		t.Fatalf("predictions %+v, want a and b", preds)
	}
	if preds[1].Completion != 11 {
		t.Errorf("re-added b completes at %g: served from the dropped trace (idle is 11)", preds[1].Completion)
	}
	fresh := m.Candidates(spec)
	if !slices.Equal(fresh, []string{"a", "b"}) {
		t.Errorf("Candidates after churn = %v", fresh)
	}
	before = m.EvalStats()
	if _, err := m.EvaluateAll(3, spec, 1, fresh); err != nil {
		t.Error(err)
	}
	if got := m.EvalStats().NameLookups - before.NameLookups; got != 0 {
		t.Errorf("fresh index resolved %d names", got)
	}
}

// TestIndexBuiltPerSpecAndMembership counts index builds: one per spec
// in use however many decisions follow, one more per spec after a
// membership change, and a cache that holds at most maxIndexedSpecs
// specs whatever the stream.
func TestIndexBuiltPerSpecAndMembership(t *testing.T) {
	universe := churnUniverse()
	specs := churnSpecs(universe)
	m := New(universe[:10])
	decide := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			spec := specs[i%len(specs)]
			if _, err := m.EvaluateAll(i, spec, float64(i), m.Candidates(spec)); err != nil {
				t.Fatal(err)
			}
		}
	}
	decide(200)
	if got := m.EvalStats().IndexBuilds; got != uint64(len(specs)) {
		t.Errorf("%d index builds for %d specs over 200 decisions", got, len(specs))
	}
	m.AddServer(universe[12])
	decide(200)
	if got := m.EvalStats().IndexBuilds; got != uint64(2*len(specs)) {
		t.Errorf("%d index builds after one join, want %d", got, 2*len(specs))
	}
	m.AddServer(universe[12]) // already tracked: not a membership change
	decide(8)
	if got := m.EvalStats().IndexBuilds; got != uint64(2*len(specs)) {
		t.Errorf("%d index builds after a repeated join, want %d", got, 2*len(specs))
	}

	// A spec per task: every decision builds, the cache stays bounded.
	before := m.EvalStats().IndexBuilds
	for i := 0; i < 3*maxIndexedSpecs; i++ {
		cp := *specs[1]
		own := m.Candidates(&cp)
		st := m.EvalStats()
		if _, err := m.EvaluateAll(1000+i, &cp, 300, own); err != nil {
			t.Fatal(err)
		}
		if got := m.EvalStats().NameLookups - st.NameLookups; got != 0 {
			t.Errorf("fresh spec %d: %d name lookups", i, got)
		}
		if len(m.index) > maxIndexedSpecs {
			t.Fatalf("index cache holds %d specs, cap %d", len(m.index), maxIndexedSpecs)
		}
	}
	if got := m.EvalStats().IndexBuilds - before; got != 3*maxIndexedSpecs {
		t.Errorf("%d builds for %d fresh specs", got, 3*maxIndexedSpecs)
	}
}
