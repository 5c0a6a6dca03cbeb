package htm

import (
	"math"
	"testing"

	"casched/internal/stats"
	"casched/internal/task"
)

// checkInstalled reports whether the Place just made on server installed
// the trace's baseline from the last pass (nothing else leaves a baseline
// current at the generation a placement moves to), and fails the test
// unless that baseline is, bit for bit, the one a refresh computes.
func checkInstalled(t *testing.T, m *Manager, server string, id int) bool {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	tr, ok := m.traces[server]
	if !ok || tr.baseline == nil || tr.baselineGen != tr.gen {
		return false
	}
	fresh := make(map[int]float64)
	clone := tr.liveClone()
	projectCloneInto(clone, fresh)
	putSim(clone)
	got := tr.baseline.m
	if len(got) != len(fresh) {
		t.Fatalf("job %d on %s: installed baseline holds %d jobs, a refresh %d:\n got   %v\n fresh %v", id, server, len(got), len(fresh), got, fresh)
	}
	drain := 0.0
	for job, c := range fresh {
		if g, ok := got[job]; !ok || math.Float64bits(g) != math.Float64bits(c) {
			t.Fatalf("job %d on %s: installed baseline has job %d at %v (%v), a refresh at %v", id, server, job, g, ok, c)
		}
		drain = max(drain, c)
	}
	if tr.drain != drain {
		t.Fatalf("job %d on %s: drain %v, want %v", id, server, tr.drain, drain)
	}
	return true
}

// installRow is one run of TestInstalledBaselineSameBits.
type installRow struct {
	name      string
	servers   int
	memory    bool // the memory model, with the Table 2 machines beside the synthetic pool
	sync      bool
	decisions int
	gap       func(id int) float64
	obj       func(id int) Objective
	// churn mixes in what must miss or must match on more than the
	// generation: placements off the winner, at a later arrival than the
	// pass, after a re-anchor of the winner's trace, and passes over a
	// list resolved by name.
	churn bool
	// minHit is the share of placements that must install.
	minHit float64
}

// TestInstalledBaselineSameBits checks every Place of a run: when it
// installs what the last pass projected as the placed trace's baseline,
// that baseline must equal a fresh projection of the trace bit for bit.
// The steady rows, a 1024-server HMCT pool at light load and a 128-server
// MSF pool at saturation, place on the winner and must install on at
// least 99% of placements. The churn rows add the memory model, WithSync
// re-anchors (of the winner's last job, between the pass and the Place,
// which only the generation tells), placements off the winner and at a
// later arrival, idle-class replicas and passes over name-resolved subsets.
func TestInstalledBaselineSameBits(t *testing.T) {
	hmct := func(int) Objective { return MinCompletion }
	mixed := func(id int) Objective { return []Objective{MinCompletion, MinSumFlow}[id%2] }
	light := func(rng *stats.RNG, mean float64) func(int) float64 {
		return func(id int) float64 {
			if id/150%3 == 2 {
				return 0.2 * mean * rng.Float64()
			}
			return 2 * mean * rng.Float64()
		}
	}
	rng := stats.NewRNG(29)
	rows := []installRow{
		{name: "hmct-1024", servers: 1024, decisions: 3000, gap: func(int) float64 { return 0.55 }, obj: hmct, minHit: 0.99},
		{name: "msf-128-saturated", servers: 128, decisions: 2000, gap: func(id int) float64 {
			if id < 1536 {
				return 0.5
			}
			return 0.862
		}, obj: func(int) Objective { return MinSumFlow }, minHit: 0.99},
		{name: "churn", servers: 256, sync: true, decisions: 1500, gap: light(rng, 0.2), obj: mixed, churn: true},
		{name: "churn-memory", servers: 256, memory: true, sync: true, decisions: 1500, gap: light(rng, 0.2), obj: mixed, churn: true},
	}
	table2 := []string{"artimon", "cabestan", "chamagne", "pulney", "spinnaker", "valette", "xrousse", "zanzibar"}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var opts []Option
			var extra []string
			if row.memory {
				opts, extra = append(opts, WithMemoryModel()), table2
			}
			if row.sync {
				opts = append(opts, WithSync())
			}
			names, specs := largePool(row.servers, extra)
			m := New(names, opts...)
			rng := stats.NewRNG(30)
			last := make(map[string]int) // the last job placed on each server
			now := 0.0
			places, hits := 0, 0
			var late, reanchored, subsets, offWinner int
			for id := 0; id < row.decisions; id++ {
				now += row.gap(id)
				spec := specs[rng.Intn(len(specs))]
				obj := row.obj(id)
				candidates := m.Candidates(spec)
				if row.churn && rng.Intn(6) == 0 {
					// A subset, resolved by name.
					subsets++
					var sub []string
					for _, s := range candidates {
						if rng.Intn(3) > 0 {
							sub = append(sub, s)
						}
					}
					candidates = sub
				}
				preds, err := m.Minimizing(obj, pruneTie).EvaluateAll(id, spec, now, candidates)
				if err != nil && len(preds) == 0 {
					continue
				}
				target, at := pickWinner(obj, preds), now
				if target == "" {
					continue
				}
				if row.churn {
					switch rng.Intn(10) {
					case 0:
						offWinner++
						target = candidates[rng.Intn(len(candidates))]
						if row.memory && rng.Intn(2) == 0 {
							target = table2[rng.Intn(len(table2))]
						}
					case 1:
						late++
						at += 0.5 + rng.Float64()
					case 2, 3:
						if job, ok := last[target]; ok {
							reanchored++
							if err := m.NotifyCompletion(job, now); err != nil {
								t.Logf("job %d: re-anchor of %d: %v", id, job, err)
							}
						}
					}
				}
				if err := m.Place(id, spec, at, target); err != nil {
					continue
				}
				last[target] = id
				places++
				if checkInstalled(t, m, target, id) {
					hits++
				}
				if at > now {
					now = at
				}
			}
			st := m.EvalStats()
			t.Logf("%d of %d placements installed; %d refreshes for %d decisions; %d off the winner, %d late, %d re-anchored, %d subsets",
				hits, places, st.Refreshes, row.decisions, offWinner, late, reanchored, subsets)
			if float64(hits) < row.minHit*float64(places) {
				t.Errorf("%d of %d placements installed, want at least %.0f%%", hits, places, 100*row.minHit)
			}
			if hits == 0 {
				t.Error("no placement installed its projection")
			}
		})
	}
}

// TestInstallMatchRule places where the stash must not match: another
// job, another spec, a later arrival, a re-anchored trace, an idle trace
// of another memory configuration, and after an exhaustive pass; then
// where it must: the winner, and an idle replica of the winner's class.
func TestInstallMatchRule(t *testing.T) {
	spec := &task.Spec{Problem: "match", CostOn: map[string]task.Cost{}, MemoryMB: 150}
	other := &task.Spec{Problem: "match", Variant: 1, CostOn: spec.CostOn, MemoryMB: 150}
	// valette has 128 MB of RAM, so the 150 MB job thrashes there; a0 and
	// a1 model no memory. All three cost the same.
	servers := []string{"a0", "a1", "valette"}
	for _, s := range servers {
		spec.CostOn[s] = task.Cost{Input: 1, Compute: 10, Output: 1}
	}
	m := New(servers, WithMemoryModel(), WithSync())
	z := m.Minimizing(MinCompletion, pruneTie)
	id := 0
	pass := func(at float64) []Prediction {
		t.Helper()
		id++
		preds, err := z.EvaluateAll(id, spec, at, m.Candidates(spec))
		if err != nil {
			t.Fatal(err)
		}
		return preds
	}
	last := make(map[string]int) // the last job placed on each server
	place := func(s *task.Spec, job int, at float64, server string, want bool) {
		t.Helper()
		if err := m.Place(job, s, at, server); err != nil {
			t.Fatal(err)
		}
		last[server] = job
		if got := checkInstalled(t, m, server, job); got != want {
			t.Fatalf("job %d on %s at %v: installed %v, want %v", job, server, at, got, want)
		}
	}
	// An idle replica: a0's projection answered for a1.
	pass(0)
	place(spec, id, 0, "a1", true)
	// The same class key but for memory: valette was idle too.
	pass(1)
	place(spec, id, 1, "valette", false)
	// Another job id, another spec, a later arrival.
	pass(2)
	place(spec, id+100, 2, "a0", false)
	pass(3)
	place(other, id, 3, "a0", false)
	pass(4)
	place(spec, id, 4.5, "a0", false)
	// The winner, busy, with and without a re-anchor in between.
	preds := pass(5)
	winner := pickWinner(MinCompletion, preds)
	if err := m.NotifyCompletion(last[winner], 5); err != nil {
		t.Fatal(err)
	}
	place(spec, id, 5, winner, false)
	preds = pass(6)
	place(spec, id, 6, pickWinner(MinCompletion, preds), true)
	// An exhaustive pass empties the stash.
	preds = pass(7)
	if _, err := m.EvaluateAll(id, spec, 7, m.Candidates(spec)); err != nil {
		t.Fatal(err)
	}
	place(spec, id, 7, pickWinner(MinCompletion, preds), false)
	if st := m.EvalStats(); st.Refreshes == 0 {
		t.Errorf("no refresh counted: %+v", st)
	}
}

// TestInstalledBaselineStoresDates: a newcomer that pushes the server
// into thrashing more than doubles an early job's completion date, and
// then ρ+π, the date before plus the perturbation, is not the date after
// in floating point (within a factor of two the difference is exact and
// the sum gives the date back). The installed baseline holds the
// projection's own dates, so it equals a refresh bit for bit in every
// case, the inexact ones included.
func TestInstalledBaselineStoresDates(t *testing.T) {
	inexact := 0
	for k := 0; k < 32; k++ {
		// valette has 128 MB of RAM and 126 of swap: 250 MB thrash it.
		m := New([]string{"valette"}, WithMemoryModel())
		z := m.Minimizing(MinCompletion, pruneTie)
		a := &task.Spec{Problem: "dates", Variant: k, MemoryMB: 100,
			CostOn: map[string]task.Cost{"valette": {Compute: 3.1 + 0.37*float64(k)}}}
		b := &task.Spec{Problem: "dates", Variant: 100 + k, MemoryMB: 150,
			CostOn: map[string]task.Cost{"valette": {Compute: 7.3 + 0.11*float64(k)}}}
		arrival := 0.001 * float64(k+1)
		for job, spec := range []*task.Spec{a, b} {
			if _, err := z.EvaluateAll(job, spec, arrival, m.Candidates(spec)); err != nil {
				t.Fatal(err)
			}
			if err := m.Place(job, spec, arrival, "valette"); err != nil {
				t.Fatal(err)
			}
			if !checkInstalled(t, m, "valette", job) {
				t.Fatalf("case %d: job %d did not install the pass's projection", k, job)
			}
		}
		// The first job's date alone, by a fresh Manager, and beside the
		// second.
		alone := New([]string{"valette"}, WithMemoryModel())
		if err := alone.Place(0, a, arrival, "valette"); err != nil {
			t.Fatal(err)
		}
		before, _ := alone.PredictedCompletion(0)
		after, _ := m.PredictedCompletion(0)
		if before+(after-before) != after {
			inexact++
		}
	}
	if inexact == 0 {
		t.Error("ρ+π gave every date back: the cases no longer reach an inexact perturbation")
	}
}
