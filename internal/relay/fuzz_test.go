package relay

import (
	"fmt"
	"maps"
	"testing"
)

// foldState is what a View folds apart from its optimistic queue.
type foldState struct {
	inFlight int
	tenant   map[string]int // zero counts dropped
	ready    map[string]float64
	seq      uint64
}

func (s foldState) String() string {
	return fmt.Sprintf("inflight %d, tenants %v, ready %v, seq %d", s.inFlight, s.tenant, s.ready, s.seq)
}

func (s foldState) equal(o foldState) bool {
	return s.inFlight == o.inFlight && s.seq == o.seq && maps.Equal(s.tenant, o.tenant) && maps.Equal(s.ready, o.ready)
}

// stateOf reads a view's fold.
func stateOf(v *View) foldState {
	s := foldState{inFlight: v.inFlight, tenant: map[string]int{}, ready: maps.Clone(v.ready), seq: v.seq}
	for t, n := range v.tenant {
		if n != 0 {
			s.tenant[t] = n
		}
	}
	if s.ready == nil {
		s.ready = map[string]float64{}
	}
	return s
}

// refFold is the fold of one event written out on its own: the reference
// every View is held against.
func refFold(s foldState, ev Event) foldState {
	s.tenant, s.ready = maps.Clone(s.tenant), maps.Clone(s.ready)
	switch ev.Kind {
	case Decision:
		s.inFlight++
		if ev.Tenant != "" {
			s.tenant[ev.Tenant]++
		}
	case Completion:
		if s.inFlight > 0 {
			s.inFlight--
		}
		if ev.Tenant != "" && s.tenant[ev.Tenant] > 0 {
			if s.tenant[ev.Tenant]--; s.tenant[ev.Tenant] == 0 {
				delete(s.tenant, ev.Tenant)
			}
		}
	}
	if ev.HasReady && ev.Server != "" {
		s.ready[ev.Server] = ev.Ready
	}
	s.seq = ev.Seq
	return s
}

// cloneView copies a view so that a delta can be folded two ways.
func cloneView(v *View) *View {
	c := *v
	c.tenant, c.ready = maps.Clone(v.tenant), maps.Clone(v.ready)
	c.opt = append([]optEntry(nil), v.opt...)
	return &c
}

// viewTally counts what the checked operations reached.
type viewTally struct {
	syncedChecks, resyncs, splits, rebases, echoed int
}

// checkViewOps drives one View through the operations data spells, all
// against one Ledger: appends to the ledger, Apply of what the view has
// not seen, whole or split in two, the same delta applied again, Rebase
// on the reference fold at a sequence the ledger reached, Optimistic and
// Unsync. After every operation no count is negative and a synced view's
// fold is the reference fold of the ledger from 0 through the view's
// sequence: so a delta applied twice folds once, a range folded whole and
// folded in two pieces agree, and a rebase followed by Since of its
// sequence ends where folding from 0 does. Apply never moves a synced
// view's sequence backwards.
func checkViewOps(t *testing.T, data []byte, tally *viewTally) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	tenants := []string{"", "gold", "silver"}
	servers := []string{"", "s0", "s1", "s2"}
	l := NewLedger(12)
	// ref[s] is the reference fold through sequence s.
	ref := []foldState{{tenant: map[string]int{}, ready: map[string]float64{}}}
	v := NewView()
	marker := uint64(0)
	var last Delta
	check := func(op string) {
		t.Helper()
		if v.inFlight < 0 || v.InFlight() < 0 {
			t.Fatalf("%s: in-flight %d (%d folded)", op, v.InFlight(), v.inFlight)
		}
		for _, tn := range tenants {
			if n := v.TenantInFlight(tn); n < 0 || v.tenant[tn] < 0 {
				t.Fatalf("%s: tenant %q in flight %d", op, tn, n)
			}
		}
		if !v.Synced() {
			return
		}
		tally.syncedChecks++
		if v.seq >= uint64(len(ref)) {
			t.Fatalf("%s: view at seq %d, the ledger at %d", op, v.seq, len(ref)-1)
		}
		if got, want := stateOf(v), ref[v.seq]; !got.equal(want) {
			t.Fatalf("%s: view folds to\n %v\nthe ledger from 0 to\n %v", op, got, want)
		}
	}
	apply := func(op string, d Delta) int {
		t.Helper()
		before, synced, pending := v.Seq(), v.Synced(), v.Pending()
		n := v.Apply(d)
		if d.Resync {
			tally.resyncs++
		}
		if v.Pending() < pending {
			tally.echoed++
		}
		if synced && v.Synced() && v.Seq() < before {
			t.Fatalf("%s: seq ran back from %d to %d", op, before, v.Seq())
		}
		check(op)
		return n
	}
	for ops := 0; len(data) > 0 && ops < 200; ops++ {
		switch op := next() % 8; op {
		case 0, 1:
			ev := Event{Kind: Decision, JobID: next() % 8, Tenant: tenants[next()%3]}
			if op == 1 {
				ev.Kind = Completion
			}
			if b := next(); b%4 != 0 {
				ev.Server, ev.Ready, ev.HasReady = servers[b%4], float64(b/4), b%8 < 4
			}
			ev.Seq = l.Append(ev)
			ref = append(ref, refFold(ref[len(ref)-1], ev))
		case 2:
			last = l.Since(v.Seq())
			apply("whole", last)
		case 3:
			// Split at k, and fold the whole on a copy to compare.
			d := l.Since(v.Seq())
			whole := cloneView(v)
			whole.Apply(d)
			if !d.Resync && len(d.Events) > 0 {
				k := next() % (len(d.Events) + 1)
				tally.splits++
				at := d.From + uint64(k)
				apply("first piece", Delta{Events: d.Events[:k], From: d.From, To: at})
				apply("second piece", Delta{Events: d.Events[k:], From: at, To: d.To})
			} else {
				apply("unsplit", d)
			}
			if v.Synced() != whole.Synced() || v.Synced() && !stateOf(v).equal(stateOf(whole)) {
				t.Fatalf("split fold %v, whole %v", stateOf(v), stateOf(whole))
			}
			last = d
		case 4:
			before := stateOf(v)
			synced := v.Synced()
			if n := apply("again", last); n != 0 || synced && !stateOf(v).equal(before) {
				t.Fatalf("a delta applied again folded %d: %v, before %v", n, stateOf(v), before)
			}
		case 5:
			s := uint64(next() % len(ref))
			b := Base{InFlight: ref[s].inFlight, Tenant: maps.Clone(ref[s].tenant), Ready: maps.Clone(ref[s].ready), Seq: s}
			v.Rebase(b, uint64(next())%(marker+1))
			tally.rebases++
			check("rebase")
			apply("since rebase", l.Since(s))
		case 6:
			marker++
			v.Optimistic(next()%8, tenants[next()%3], servers[1+next()%3], float64(next()), float64(next()%5), marker)
			check("optimistic")
		case 7:
			v.Unsync()
			check("unsync")
		}
	}
}

// FuzzViewApply runs checkViewOps on fuzzer-chosen operations.
func FuzzViewApply(f *testing.F) {
	f.Add([]byte{})
	// Rebase at 0, decisions and a completion, folded whole, split and
	// applied again.
	f.Add([]byte{5, 0, 0, 0, 1, 1, 1, 6, 0, 2, 2, 5, 1, 2, 8, 3, 1, 4})
	// More events than the ledger keeps: a resync, then a rebase.
	f.Add([]byte{5, 0, 0, 0, 0, 9, 0, 0, 1, 9, 0, 1, 2, 9, 0, 2, 0, 9, 0, 3, 1, 9, 0, 4, 2, 9, 0, 5, 0, 9,
		0, 6, 1, 9, 0, 7, 2, 9, 0, 0, 0, 9, 0, 1, 1, 9, 0, 2, 2, 9, 0, 3, 0, 9, 0, 4, 1, 9, 2, 5, 14, 0, 2})
	// Optimistic delegations echoed by decisions, an unsync in between.
	f.Add([]byte{5, 0, 0, 6, 3, 1, 0, 7, 2, 0, 3, 1, 5, 2, 7, 5, 0, 0, 2, 3, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip()
		}
		checkViewOps(t, data, &viewTally{})
	})
}

// TestViewApplyOperations runs checkViewOps over seeded random operation
// strings, and requires that they reached synced folds, resyncs, split
// deltas, rebases and echoed delegations in numbers.
func TestViewApplyOperations(t *testing.T) {
	var tally viewTally
	state := uint64(20261016)
	for i := 0; i < 2000; i++ {
		data := make([]byte, 20+i%200)
		for k := range data {
			state = state*6364136223846793005 + 1442695040888963407
			data[k] = byte(state >> 56)
		}
		checkViewOps(t, data, &tally)
		if t.Failed() {
			t.Fatalf("case %d failed: %x", i, data)
		}
	}
	t.Logf("%+v", tally)
	if tally.syncedChecks < 20000 || tally.resyncs < 200 || tally.splits < 1000 || tally.rebases < 1000 || tally.echoed < 200 {
		t.Errorf("%+v: the operations no longer reach them", tally)
	}
}
