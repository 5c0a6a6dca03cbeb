package htm

import (
	"fmt"
	"slices"
	"testing"

	"casched/internal/stats"
	"casched/internal/task"
)

// memoRun is what checkMemoRun saw: the predictions the passes returned
// and those the memo served, the passes run at the arrival of a Sim read
// that moved a trace, and the candidates the exhaustive pass failed on.
type memoRun struct {
	returned, reused uint64
	afterSim, failed int
}

// checkMemoRun decodes a byte string into a churned history of same-date
// bursts over three specs with partial cost tables: placements, WithSync
// re-anchors, Sim reads, DropServer and AddServer, with the memory model
// on or off (the first byte's low bits, as in buildPruneCase). Every
// burst member is evaluated by one of the passes that read the memo — the
// exhaustive pass and the pruned one under either objective, over the
// index's own list or a copy resolved by name — and every prediction it
// returns must be the bits a fresh projection (Evaluate, which reads no
// memo) computes; where the exhaustive pass returns none for a tracked
// solver, Evaluate must fail too. The member is then placed on one of the
// servers returned, which changes that trace for the members after it.
func checkMemoRun(t *testing.T, data []byte) memoRun {
	t.Helper()
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
	servers := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	var opts []Option
	if memory {
		// Table 2 machines, whose RAM the HTM then models (valette:
		// 128+126 MB collapses under two 150 MB jobs).
		servers = []string{"artimon", "cabestan", "chamagne", "pulney", "spinnaker", "valette"}
		opts = append(opts, WithMemoryModel())
	}
	if sync {
		opts = append(opts, WithSync())
	}
	m := New(servers, opts...)

	links := []float64{0, 0, 0.5, 3, 20}
	computes := []float64{0, 1, 7, 20, 60}
	footprints := []float64{0, 0, 40, 150, 300}
	specs := make([]*task.Spec, 3)
	for i := range specs {
		s := &task.Spec{Problem: fmt.Sprintf("p%d", i), CostOn: map[string]task.Cost{}, MemoryMB: footprints[next()%5]}
		for j, name := range servers {
			if j%3 == i {
				continue // each spec is solved by four servers of six
			}
			a, b := next(), next()
			s.CostOn[name] = task.Cost{Input: links[a%5], Compute: computes[b%5], Output: links[(a/5+b/5)%5]}
		}
		specs[i] = s
	}

	var run memoRun
	gaps := []float64{0, 0, 0.25, 2, 9, 40}
	now, id, simAt := 0.0, 0, -1.0
	before := m.EvalStats()
	for ops := 8 + next()%40; ops > 0; ops-- {
		op := next()
		switch op % 8 {
		case 5:
			if id > 0 {
				_ = m.NotifyCompletion(next()%id, now) // a no-op without WithSync
			}
		case 6:
			name := servers[next()%len(servers)]
			if op>>7 == 1 {
				m.DropServer(name)
			} else if tr := m.traces[name]; tr != nil {
				if tr.sim.Now() < m.now {
					simAt = now
				}
				m.Sim(name)
			}
		case 7:
			m.AddServer(servers[next()%len(servers)])
		default:
			now += gaps[(op>>3)%6]
			for members := 1 + (op>>5)%6; members > 0; members-- {
				spec := specs[next()%3]
				own := m.Candidates(spec)
				if len(own) == 0 {
					continue
				}
				list := own
				path := next()
				if path&4 != 0 {
					list = slices.Clone(own)
				}
				var preds []Prediction
				var err error
				switch path % 4 {
				case 0, 3:
					preds, err = m.EvaluateAll(id, spec, now, list)
				case 1:
					preds, err = m.Minimizing(MinCompletion, pruneTie).EvaluateAll(id, spec, now, list)
				case 2:
					preds, err = m.Minimizing(MinSumFlow, pruneTie).EvaluateAll(id, spec, now, list)
				}
				if now == simAt {
					run.afterSim++
				}
				returned := make(map[string]bool, len(preds))
				for _, p := range preds {
					returned[p.Server] = true
					fresh, ferr := m.Evaluate(id, spec, now, p.Server)
					if ferr != nil || !samePrediction(p, fresh) {
						t.Fatalf("job %d at %v on %s: pass returned %+v, a fresh projection %+v (%v)", id, now, p.Server, p, fresh, ferr)
					}
				}
				if path%4 == 0 || path%4 == 3 {
					for _, s := range own {
						if !returned[s] {
							if _, ferr := m.Evaluate(id, spec, now, s); ferr == nil {
								t.Fatalf("job %d at %v: the pass left %s out (%v), a fresh projection does not fail", id, now, s, err)
							}
							run.failed++
						}
					}
				}
				run.returned += uint64(len(preds))
				if len(preds) > 0 {
					// A placement on a collapsed trace fails; the history simply
					// lacks that job.
					_ = m.Place(id, spec, now, preds[next()%len(preds)].Server)
				}
				id++
			}
		}
	}
	run.reused = m.EvalStats().Reused - before.Reused
	return run
}

// TestMemoSameBits holds every prediction of seeded churned runs against
// a fresh projection (checkMemoRun) and requires the runs to have met
// what the memo must survive: predictions served from it with and without
// the memory model, bursts at the instant of a Sim read that moved a
// trace, and projections that failed.
func TestMemoSameBits(t *testing.T) {
	rng := stats.NewRNG(20261017)
	var reused [2]uint64
	var returned uint64
	afterSim, failed := 0, 0
	for i := 0; i < 1500; i++ {
		data := make([]byte, 32+rng.Intn(320))
		for k := range data {
			data[k] = byte(rng.Intn(256))
		}
		// Spread the four option combinations evenly.
		data[0] = byte(i)
		run := checkMemoRun(t, data)
		if t.Failed() {
			t.Fatalf("case %d failed: %x", i, data)
		}
		reused[data[0]&1] += run.reused
		returned += run.returned
		afterSim += run.afterSim
		failed += run.failed
	}
	t.Logf("%d predictions returned, %v served from the memo (without, with the memory model); %d passes after a Sim read, %d failed projections",
		returned, reused, afterSim, failed)
	if reused[0] < returned/10 || reused[1] < returned/10 {
		t.Errorf("the memo served %v of %d predictions, want a tenth each without and with the memory model", reused, returned)
	}
	if afterSim < 100 || failed < 100 {
		t.Errorf("%d passes at the instant of a Sim read, %d failed projections: want 100 of each", afterSim, failed)
	}
}

// FuzzMemoSameBits is checkMemoRun on arbitrary input.
func FuzzMemoSameBits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0xe0, 0, 1, 2, 0xe0, 4, 5, 6})
	f.Add([]byte{1, 4, 4, 4, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 9, 0xe0, 2, 0, 0xe0, 2, 1, 0x06, 5, 0xe0, 2, 4})
	f.Add([]byte{3, 2, 3, 4, 0, 9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 9, 1, 8, 2, 7, 3, 6, 4, 5, 9, 0x60, 0, 0, 0x65, 3, 0x06, 2, 0x60, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip()
		}
		checkMemoRun(t, data)
	})
}

// memoSpec is a task of compute 10 on s1 and 100 on s2.
func memoSpec() *task.Spec {
	return &task.Spec{Problem: "p", CostOn: map[string]task.Cost{
		"s1": {Input: 1, Compute: 10, Output: 1},
		"s2": {Input: 1, Compute: 100, Output: 1},
	}}
}

// TestMemoErrorNotPoisoned: the memo never serves what a projection would
// fail on, nor a failure to what would succeed. A job already placed is
// refused on the trace it is live on, so its pass reads no memo and
// reports the error; a trace that collapsed fails every projection, and
// a failed projection leaves no memo behind, so the next member of the
// burst projects it again and fails again.
func TestMemoErrorNotPoisoned(t *testing.T) {
	spec := memoSpec()
	m := New([]string{"s1", "s2"})
	if err := m.Place(1, spec, 0, "s1"); err != nil {
		t.Fatal(err)
	}
	own := m.Candidates(spec)
	if preds, err := m.EvaluateAll(2, spec, 1, own); err != nil || len(preds) != 2 {
		t.Fatalf("fresh job: %+v, %v", preds, err)
	}
	// Job 1 is live on s1: adding it there again fails, with or without a
	// memo of s1 at this arrival.
	preds, err := m.EvaluateAll(1, spec, 1, own)
	if err == nil || len(preds) != 1 || preds[0].Server != "s2" {
		t.Fatalf("placed job: %+v, %v; want s2 and the error on s1", preds, err)
	}
	before := m.EvalStats()
	preds, err = m.EvaluateAll(3, spec, 1, own)
	if err != nil || len(preds) != 2 {
		t.Fatalf("after the failure: %+v, %v; want both servers", preds, err)
	}
	if got := m.EvalStats().Reused - before.Reused; got != 2 {
		t.Errorf("%d predictions served from the memo, want 2", got)
	}
	for _, p := range preds {
		if fresh, err := m.Evaluate(3, spec, 1, p.Server); err != nil || !samePrediction(p, fresh) {
			t.Errorf("%s: memo %+v, projection %+v (%v)", p.Server, p, fresh, err)
		}
	}

	// valette holds 128+126 MB: two 150 MB jobs collapse it.
	m = New([]string{"artimon", "valette"}, WithMemoryModel())
	heavy := &task.Spec{Problem: "h", MemoryMB: 150, CostOn: map[string]task.Cost{"valette": {Input: 1, Compute: 10, Output: 1}}}
	for id := 1; id <= 2; id++ {
		if err := m.Place(id, heavy, 0, "valette"); err != nil {
			t.Fatal(err)
		}
	}
	light := &task.Spec{Problem: "l", CostOn: map[string]task.Cost{
		"artimon": {Input: 1, Compute: 10, Output: 1},
		"valette": {Input: 1, Compute: 10, Output: 1},
	}}
	own = m.Candidates(light)
	for id := 3; id <= 5; id++ {
		preds, err := m.EvaluateAll(id, light, 1, own)
		if err == nil || len(preds) != 1 || preds[0].Server != "artimon" {
			t.Fatalf("member %d: %+v, %v; want artimon and the error on the collapsed valette", id, preds, err)
		}
	}
}

// TestMemoServesUnchangedTraces: a pass that projected every candidate
// leaves each in the memo, and a later member at the same arrival is
// served from it on every trace the placements in between left unchanged,
// and projects the one they changed.
func TestMemoServesUnchangedTraces(t *testing.T) {
	spec := memoSpec()
	m := New([]string{"s1", "s2", "s3"}) // s3 does not solve the task
	own := m.Candidates(spec)
	before := m.EvalStats()
	for id := 0; id < 3; id++ {
		if _, err := m.EvaluateAll(id, spec, 0, own); err != nil {
			t.Fatal(err)
		}
	}
	st := m.EvalStats()
	if p, r := st.Projections-before.Projections, st.Reused-before.Reused; p != 2 || r != 4 {
		t.Errorf("three members at one arrival: %d projected, %d reused; want 2 and 4", p, r)
	}
	if err := m.Place(2, spec, 0, "s1"); err != nil {
		t.Fatal(err)
	}
	before = m.EvalStats()
	if _, err := m.EvaluateAll(3, spec, 0, own); err != nil {
		t.Fatal(err)
	}
	st = m.EvalStats()
	if p, r := st.Projections-before.Projections, st.Reused-before.Reused; p != 1 || r != 1 {
		t.Errorf("after a placement on s1: %d projected, %d reused; want s1 projected, s2 reused", p, r)
	}
	// A later arrival projects again.
	before = st
	if _, err := m.EvaluateAll(4, spec, 1, own); err != nil {
		t.Fatal(err)
	}
	if st := m.EvalStats(); st.Projections-before.Projections != 2 || st.Reused != before.Reused {
		t.Errorf("a later arrival reused the memo: %+v, before %+v", st, before)
	}
}
