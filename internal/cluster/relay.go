package cluster

// Dispatcher-side half of the live event relay: pulling each
// relay-capable member's decision/completion deltas (RelaySource),
// folding them into the member's view, and pricing degraded-mode
// routing on the resulting near-fresh per-server backlog picture. The
// member-side half is the agent core's relay ledger; the wire is
// internal/live's Member.Relay RPC.

import (
	"sort"
	"sync"

	"casched/internal/agent"
	"casched/internal/relay"
)

// RelayStats aggregates the dispatcher's relay accounting: how many
// member events were folded (the bandwidth side of the trade) and how
// many degraded-mode decisions were routed on relay pricing rather
// than summary-only power-of-two-choices (the quality side).
type RelayStats struct {
	EventsFolded uint64
	Delegated    uint64
}

// RelayStats returns the dispatcher's relay counters (zero with the
// relay off).
func (d *Dispatcher) RelayStats() RelayStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return RelayStats{EventsFolded: d.relayFolded, Delegated: d.relayRouted}
}

// PullRelay forces a relay pull of every synced member regardless of
// RelayInterval — the background relay tick of the TCP runtime, and
// the freshness dial of the federation study.
func (d *Dispatcher) PullRelay() { d.relayPull(true) }

// relayPull collects the members due a relay pull, performs the pulls
// OUTSIDE the dispatch lock (like summary refresh: a slow member's
// RPC must not stall routing), and re-locks to fold the deltas. Only
// members whose view is synced are pulled — an unsynced view cannot
// fold a delta and waits for the next summary rebase instead; members
// that answered "no relay" (relayCap < 0) are skipped until a summary
// proves otherwise. A no-op with the relay off.
func (d *Dispatcher) relayPull(force bool) {
	if !d.cfg.Relay {
		return
	}
	type pull struct {
		i     int
		src   RelaySource
		since uint64
	}
	d.mu.Lock()
	now := d.cfg.Now()
	var pulls []pull
	for i, ms := range d.members {
		if ms.evicted || ms.left || ms.relayFetching || ms.view == nil || !ms.view.Synced() || ms.relayCap < 0 {
			continue
		}
		src, ok := ms.m.(RelaySource)
		if !ok {
			ms.relayCap = -1
			continue
		}
		if !force && !ms.relayFetched.IsZero() && now.Sub(ms.relayFetched) < d.cfg.RelayInterval {
			continue
		}
		ms.relayFetching = true
		pulls = append(pulls, pull{i: i, src: src, since: ms.view.Seq()})
	}
	d.mu.Unlock()
	if len(pulls) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, p := range pulls {
		wg.Add(1)
		d.cfg.spawn(func() {
			defer wg.Done()
			delta, ok, err := p.src.RelaySince(p.since)
			d.applyRelay(p.i, p.src, delta, ok, err)
		})
	}
	wg.Wait()
}

// applyRelay folds one relay-pull outcome. Mirrors applyFetch: the
// source identity check discards results from a handle the slot has
// been rejoined away from, and only transport failures count toward
// eviction. A member that answers "relay unsupported" is remembered
// as such until a later summary advertises relay again.
func (d *Dispatcher) applyRelay(i int, src RelaySource, delta relay.Delta, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ms := d.members[i]
	ms.relayFetching = false
	cur, _ := ms.m.(RelaySource)
	if cur != src {
		return
	}
	if err != nil {
		d.markTransportLocked(i, err)
		return
	}
	if !ok {
		ms.relayCap = -1
		ms.view.Unsync()
		return
	}
	ms.relayCap = 1
	ms.relayFetched = d.cfg.Now()
	if applied := ms.view.Apply(delta); applied > 0 {
		d.relayFolded += uint64(applied)
		// The view moved: the member is visibly absorbing work, so the
		// consecutive-delegation bound re-arms.
		ms.consec = 0
	}
}

// noteDelegatedLocked records one degraded-mode delegation in the
// member's relay accounting: the view's in-flight and the chosen
// server's backlog are bumped optimistically the moment the decision
// is delegated, reconciled when the member's relayed decision event
// arrives (or dropped by the next summary rebase that already counts
// it). Caller holds d.mu; a no-op with the relay off.
func (d *Dispatcher) noteDelegatedLocked(i int, req agent.Request, dec agent.Decision, viaRelay bool) {
	ms := d.members[i]
	if ms.view == nil {
		return
	}
	ms.delegSeq++
	ms.consec++
	cost := 0.0
	if c, ok := req.Spec.Cost(dec.Server); ok {
		cost = c.Total()
	}
	ms.view.Optimistic(req.JobID, req.Tenant, dec.Server, req.Arrival, cost, ms.delegSeq)
	if viaRelay {
		d.relayRouted++
	}
}

// relayOrderLocked orders live members for one degraded-mode decision
// by the estimated completion of the request on each member's best
// server: est = max(arrival, projected-ready) + total cost, priced
// from the member's relay view (near-fresh drains plus the optimistic
// backlog of unconfirmed delegations). Members whose view cannot
// price the request (unsynced, no per-server drains, or no solving
// server) fall back to the summary-only power-of-two ranking, after
// every priced member. Members over the consecutive-delegation bound
// are demoted to the very end — a member whose view stopped advancing
// must not absorb an unbounded run of decisions on frozen estimates.
//
// ok is false when no member can be priced at all, in which case the
// caller routes entirely by orderLocked (and the rng stream advances
// exactly as it would with the relay off — the parity contract).
// Caller holds d.mu.
func (d *Dispatcher) relayOrderLocked(req agent.Request, live []int) ([]int, bool) {
	if !d.cfg.Relay {
		return nil, false
	}
	priceable := false
	for _, i := range live {
		ms := d.members[i]
		if ms.view != nil && ms.view.Synced() && ms.view.HasReady() {
			priceable = true
			break
		}
	}
	if !priceable {
		return nil, false
	}
	// One pass over the partition map prices every member's best
	// server: the dispatcher knows the full server→member assignment
	// and every task spec carries its per-server costs, so the relay's
	// per-server drains are enough to estimate completions globally.
	est := make(map[int]float64, len(live))
	for server, i := range d.home {
		ms := d.members[i]
		if ms.evicted || ms.view == nil || !ms.view.Synced() {
			continue
		}
		c, ok := req.Spec.Cost(server)
		if !ok {
			continue
		}
		r, ok := ms.view.Ready(server)
		if !ok {
			continue
		}
		if req.Arrival > r {
			r = req.Arrival
		}
		e := r + c.Total()
		if cur, seen := est[i]; !seen || e < cur {
			est[i] = e
		}
	}
	type scored struct {
		i   int
		est float64
	}
	var priced, demoted []scored
	var rest []int
	for _, i := range live {
		e, ok := est[i]
		if !ok {
			rest = append(rest, i)
			continue
		}
		if d.members[i].consec >= d.cfg.RelayMaxConsecutive {
			demoted = append(demoted, scored{i, e})
			continue
		}
		priced = append(priced, scored{i, e})
	}
	if len(priced) == 0 && len(demoted) == 0 {
		return nil, false
	}
	sort.SliceStable(priced, func(a, b int) bool { return priced[a].est < priced[b].est })
	sort.SliceStable(demoted, func(a, b int) bool { return demoted[a].est < demoted[b].est })
	out := make([]int, 0, len(live))
	for _, s := range priced {
		out = append(out, s.i)
	}
	if len(rest) > 0 {
		// Unpriceable members keep their historical p2c ranking among
		// themselves (this consumes the rng only when such members
		// exist, so fully-priced federations keep a deterministic
		// stream).
		out = append(out, d.orderLocked(req.Arrival, rest, req.Tenant)...)
	}
	for _, s := range demoted {
		out = append(out, s.i)
	}
	return out, true
}
