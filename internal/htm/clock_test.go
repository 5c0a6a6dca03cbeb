package htm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"casched/internal/stats"
	"casched/internal/task"
)

// closeDates compares two dates of a run that has reached the instant
// now: equal within 1e-12 relative to the magnitude of dates there.
func closeDates(a, b, now float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*max(1, now, math.Abs(a), math.Abs(b))
}

// TestLazyClockMatchesWalk holds the per-trace event clocks against the
// clock they replaced. Two managers, both re-anchoring (WithSync) and
// pruning (WithRetention), take the same placements, completions, drops
// and fine-grained clock steps; on the reference every trace is brought
// to every step (through Sim, the way the whole-pool walk did), on the
// other a trace moves at its own events only. The reference consumes the
// same work in many short pieces, the other in one piece per event, so
// their dates differ in the last bits and no more: every prediction,
// perturbation, ready time and completion along the way agrees within
// 1e-12 relative, each manager's pruned pass meets its contract against
// its own exhaustive predictions, and the decisions (the least
// completion, first in name order within the tie tolerance) are the same
// placements.
func TestLazyClockMatchesWalk(t *testing.T) {
	universe := churnUniverse()
	specs := churnSpecs(universe)
	for seed := uint64(1); seed <= 6; seed++ {
		walked := New(universe[:12], WithSync(), WithRetention(15))
		lazy := New(universe[:12], WithSync(), WithRetention(15))
		rng := stats.NewRNG(seed)
		now := 0.0
		trailing := 0
		for id := 0; id < 250; id++ {
			// Move the clock in steps far smaller than a task.
			for steps, dt := 1+rng.Intn(12), 8*rng.Float64(); steps > 0; steps-- {
				now += dt / 12
				walked.AdvanceTo(now)
				for _, s := range walked.Servers() {
					walked.Sim(s)
				}
				lazy.AdvanceTo(now)
			}
			for _, tr := range lazy.busy {
				if tr.sim.Now() < now-1e-3 {
					trailing++
				}
			}
			if tracked := walked.Servers(); len(tracked) > 8 && rng.Intn(40) == 0 {
				name := tracked[rng.Intn(len(tracked))]
				walked.DropServer(name)
				lazy.DropServer(name)
			}
			spec := specs[rng.Intn(3)]
			var winner [2]string
			for k, m := range []*Manager{walked, lazy} {
				full, err := m.EvaluateAll(id, spec, now, m.Candidates(spec))
				if err != nil {
					t.Fatal(err)
				}
				best := math.Inf(1)
				for _, p := range full {
					best = min(best, p.Completion)
				}
				for _, p := range full {
					if p.Completion <= best+pruneTie {
						winner[k] = p.Server
						break
					}
				}
				for _, obj := range []Objective{MinCompletion, MinSumFlow} {
					pruned, _ := m.Minimizing(obj, pruneTie).EvaluateAll(id, spec, now, m.Candidates(spec))
					if err := meetsContract(obj, full, pruned); err != nil {
						t.Fatalf("seed %d job %d, manager %d: %v", seed, id, k, err)
					}
				}
			}
			if winner[0] != winner[1] {
				t.Fatalf("seed %d job %d: placed on %s by the walk, on %s by the event clocks", seed, id, winner[0], winner[1])
			}
			server := winner[0]
			if rng.Intn(4) == 0 {
				// Now and then anywhere, so that traces hold several jobs.
				own := lazy.Candidates(spec)
				server = own[rng.Intn(len(own))]
			}
			a, errA := walked.Evaluate(id, spec, now, server)
			b, errB := lazy.Evaluate(id, spec, now, server)
			if errA != nil || errB != nil || a.Interfered != b.Interfered || len(a.PerTask) != len(b.PerTask) ||
				!closeDates(a.Completion, b.Completion, now) || !closeDates(a.Flow, b.Flow, now) || !closeDates(a.Perturbation, b.Perturbation, now) {
				t.Fatalf("seed %d job %d on %s: walked %+v (%v), lazy %+v (%v)", seed, id, server, a, errA, b, errB)
			}
			for job, pi := range a.PerTask {
				if !closeDates(pi, b.PerTask[job], now) {
					t.Fatalf("seed %d job %d on %s: π_%d walked %v, lazy %v", seed, id, server, job, pi, b.PerTask[job])
				}
			}
			if errA, errB := walked.Place(id, spec, now, server), lazy.Place(id, spec, now, server); errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if old := id - 1 - rng.Intn(8); old >= 0 && rng.Intn(2) == 0 {
				errA, errB := walked.NotifyCompletion(old, now), lazy.NotifyCompletion(old, now)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d: re-anchor of %d: walked %v, lazy %v", seed, old, errA, errB)
				}
			}
			ra, rb := walked.ProjectedReadyAll(), lazy.ProjectedReadyAll()
			if len(ra) != len(rb) {
				t.Fatalf("seed %d job %d: %d and %d ready times", seed, id, len(ra), len(rb))
			}
			for s, r := range ra {
				if !closeDates(r, rb[s], now) {
					t.Fatalf("seed %d job %d: %s ready walked %v, lazy %v", seed, id, s, r, rb[s])
				}
			}
			ia, ib := walked.Placements(), lazy.Placements()
			if !slices.Equal(ia, ib) {
				t.Fatalf("seed %d job %d: retained jobs walked %v, lazy %v", seed, id, ia, ib)
			}
			for _, job := range ia {
				ca, okA := walked.PredictedCompletion(job)
				cb, okB := lazy.PredictedCompletion(job)
				if okA != okB || !closeDates(ca, cb, now) {
					t.Fatalf("seed %d job %d: completion of %d walked %v %v, lazy %v %v", seed, id, job, ca, okA, cb, okB)
				}
			}
		}
		if len(lazy.Placements()) >= 250 {
			t.Errorf("seed %d: retention pruned nothing", seed)
		}
		if trailing == 0 {
			t.Errorf("seed %d: no busy trace ever trailed the trace time: every trace was stepped to every arrival", seed)
		}
		if ws, ls := walked.EvalStats().Stepped, lazy.EvalStats().Stepped; ls == 0 || ls > 10*250 || ws != ls {
			// The reference steps the same due traces; what it adds is the move
			// of every trace to every instant, which Stepped does not count.
			t.Errorf("seed %d: %d traces stepped by the event clocks, %d on the reference", seed, ls, ws)
		}
		for _, s := range lazy.Servers() {
			sa, _ := walked.Sim(s)
			sb, _ := lazy.Sim(s)
			if sa.Now() != sb.Now() || sa.Now() != now || !closeDates(sa.Utilization(), sb.Utilization(), 1) {
				t.Errorf("seed %d: %s stands at %v (walked) and %v (lazy), trace time %v", seed, s, sa.Now(), sb.Now(), now)
			}
		}
	}
}

// readsHammer throws every read the Manager offers at it, at the given
// instant and in random order (which read meets a stale baseline decides
// which code refreshes it): the exhaustive and the pruned passes over
// the index's list and over a list of names, single-candidate
// evaluations with and without the baseline cache, the ready aggregates,
// the admission test and the retrospective read of every placed job.
func readsHammer(m *Manager, rng *stats.RNG, specs []*task.Spec, at float64) {
	spec := specs[rng.Intn(len(specs))]
	own := m.Candidates(spec)
	if len(own) == 0 {
		return
	}
	const probe = 1 << 20
	server := own[rng.Intn(len(own))]
	// Collapsed traces raise evaluation errors; a read all the same.
	reads := []func(){
		func() { m.AdvanceTo(at) },
		func() { _, _ = m.EvaluateAll(probe, spec, at, own) },
		func() { _, _ = m.EvaluateAll(probe, spec, at, m.Servers()) },
		func() { _, _ = m.Minimizing(MinCompletion, pruneTie).EvaluateAll(probe, spec, at, own) },
		func() { _, _ = m.Minimizing(MinSumFlow, pruneTie).EvaluateAll(probe, spec, at, own) },
		func() { _, _ = m.Minimizing(MinCompletion, pruneTie).EvaluateAll(probe, spec, at, slices.Clone(own)) },
		func() { _, _ = m.Minimizing(MinSumFlow, pruneTie).EvaluateAll(probe, spec, at, slices.Clone(own)) },
		func() { _, _ = m.Evaluate(probe, spec, at, server) },
		func() { _, _ = m.EvaluateFull(probe, spec, at, server) },
		func() { m.ProjectedReadyAll() },
		func() { m.MinProjectedReady() },
		func() { m.ProjectedReady(server) },
		func() { m.MeetsDeadline(spec, at, at+30, own) },
		func() {
			for _, job := range m.Placements() {
				m.PredictedCompletion(job)
			}
		},
	}
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	for _, read := range reads {
		read()
	}
}

// TestReadsDoNotStepTraces is the rule that makes the event clocks exact:
// a trace's state depends on what was placed on it and when, never on
// what was read in between. Two managers take the same Place /
// NotifyCompletion / AddServer / DropServer history; one is also hammered
// with every kind of read, at the instants of the mutations and between
// them, the other is read only at a few checkpoints. At each checkpoint
// and at the end every exhaustive prediction, ready time and predicted
// completion of the two agrees bit for bit.
func TestReadsDoNotStepTraces(t *testing.T) {
	sameFloat := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, pool := range classPools() {
		if pool.name != "repeated" && pool.name != "repeated+memory" {
			continue
		}
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
				read, quiet := New(start, opts...), New(start, opts...)
				specs := classSpecs(pool)[:6]
				rng, hammer := stats.NewRNG(21), stats.NewRNG(22)
				now := 0.0
				check := func(id int) {
					t.Helper()
					for _, spec := range specs {
						a, errA := read.EvaluateAll(id, spec, now, read.Candidates(spec))
						b, errB := quiet.EvaluateAll(id, spec, now, quiet.Candidates(spec))
						if (errA == nil) != (errB == nil) || !samePredictions(a, b) {
							t.Fatalf("job %d, %s: predictions\n read   %+v (%v)\n unread %+v (%v)", id, spec.Name(), a, errA, b, errB)
						}
					}
					ra, rb := read.ProjectedReadyAll(), quiet.ProjectedReadyAll()
					if len(ra) != len(rb) {
						t.Fatalf("job %d: %d and %d ready times", id, len(ra), len(rb))
					}
					for s, r := range ra {
						if !sameFloat(r, rb[s]) {
							t.Fatalf("job %d: %s ready at %v where read, %v where not", id, s, r, rb[s])
						}
					}
					if !slices.Equal(read.Placements(), quiet.Placements()) {
						t.Fatalf("job %d: placements differ", id)
					}
					for _, job := range quiet.Placements() {
						ca, okA := read.PredictedCompletion(job)
						cb, okB := quiet.PredictedCompletion(job)
						if okA != okB || !sameFloat(ca, cb) {
							t.Fatalf("job %d: completion of %d %v %v where read, %v %v where not", id, job, ca, okA, cb, okB)
						}
					}
				}
				for id := 0; id < 400; id++ {
					// Mostly a light pool, with spells where arrivals outrun it.
					gap := 1.5
					if id/100%2 == 1 {
						gap = 0.15
					}
					gap *= rng.Float64()
					// Not always at the instant of the last mutation: the first read
					// after a placement then falls between two events of the trace.
					if hammer.Intn(2) == 0 {
						readsHammer(read, hammer, specs, now)
					}
					readsHammer(read, hammer, specs, now+0.3*gap)
					readsHammer(read, hammer, specs, now+0.8*gap)
					now += gap
					both := []*Manager{read, quiet}
					switch tracked := quiet.Servers(); rng.Intn(16) {
					case 0:
						name := pool.servers[rng.Intn(len(pool.servers))]
						for _, m := range both {
							m.AddServer(name)
						}
					case 1:
						if len(tracked) > 8 {
							name := tracked[rng.Intn(len(tracked))]
							for _, m := range both {
								m.DropServer(name)
							}
						}
					case 2:
						name := tracked[rng.Intn(len(tracked))]
						for _, m := range both {
							m.DropServer(name)
							m.AddServer(name)
						}
					}
					spec := specs[rng.Intn(len(specs))]
					if own := quiet.Candidates(spec); len(own) > 0 {
						// Half the placements pile onto a few servers, so that traces
						// hold several jobs in different phases.
						server := own[rng.Intn(len(own))]
						if rng.Intn(2) == 0 {
							server = own[rng.Intn(min(3, len(own)))]
						}
						errA, errB := read.Place(id, spec, now, server), quiet.Place(id, spec, now, server)
						if (errA == nil) != (errB == nil) {
							t.Fatalf("job %d on %s: %v where read, %v where not", id, server, errA, errB)
						}
					}
					if old := id - rng.Intn(12); old >= 0 && rng.Intn(2) == 0 {
						errA, errB := read.NotifyCompletion(old, now), quiet.NotifyCompletion(old, now)
						if (errA == nil) != (errB == nil) {
							t.Fatalf("job %d: re-anchor of %d: %v where read, %v where not", id, old, errA, errB)
						}
					}
					if id%40 == 39 {
						check(id)
					}
				}
				check(400)
				// A read the memo served counts: it evaluated as much as a projection.
				if st, rd := quiet.EvalStats(), read.EvalStats(); st.Stepped == 0 || st.Projections+st.Reused > (rd.Projections+rd.Reused)/20 {
					t.Errorf("the unread manager: %+v; the read one: %+v", st, read.EvalStats())
				}
			})
		}
	}
}
