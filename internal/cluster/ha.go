package cluster

// Dispatcher-side seams of the self-healing federation: graceful
// member departure with partition reassignment, automatic
// re-partitioning of dead members, and the standby-adoption surface a
// freshly elected dispatcher promotes through (internal/ha drives the
// election; this file is what the winner calls to become the leader).
//
// The promotion sequence (fed.Server.promote) is ordered for the
// no-double-placement guarantee: fence members at the new term first
// (the old leader's commits start bouncing), then adopt partitions and
// replicated placement records, and only then serve clients — a
// client's retried request finds its job already placed and gets the
// recorded decision back (Submit's resume dedup) instead of a second
// placement.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"casched/internal/ha"
)

// PartitionSource is the optional capability of members that can
// enumerate their current server partition — the promotion path's
// bootstrap for home/counts state a standby never saw registrations
// for. ok is false when a wrapper's inner member lacks the capability.
type PartitionSource interface {
	Partition() ([]string, bool, error)
}

// Fencer is the optional capability of members that accept a fencing
// term: once fenced at term T, the member refuses commits stamped
// with any lower term, so a deposed leader that has not yet noticed
// its deposition cannot place work behind the new leader's back.
// Best-effort by design — a member that cannot be reached at promotion
// is not fenced (the happens-before of ledger replication still covers
// the common retry path).
type Fencer interface {
	Fence(term uint64) error
}

// reassignment is one server move computed under the dispatch lock
// and executed (the member calls) outside it. from is the member to
// withdraw the server from, nil when the source is dead or departed.
type reassignment struct {
	server string
	to     int
	m      Member
	from   Member
}

// moveLocked re-homes one server — the one mover of servers between
// partitions, behind dead-member reassignment and Rebalance alike.
// withdraw says the source is alive and must be told. Caller holds
// d.mu and issues the returned move through applyMoves.
func (d *Dispatcher) moveLocked(server string, from, to int, withdraw bool) reassignment {
	d.home[server] = to
	d.counts[from]--
	d.counts[to]++
	mv := reassignment{server: server, to: to, m: d.members[to].m}
	if withdraw {
		mv.from = d.members[from].m
	}
	return mv
}

// reassignLocked moves every server homed on member from to a
// survivor chosen by the shard policy over the live subset — the same
// rerouting AddServer applies to a single registration, applied to a
// whole partition. Servers are walked in sorted order so every
// replica of the decision is deterministic. With no survivors the
// partition stays put (nothing to move to; the next live member to
// appear re-runs reassignment via ReassignDead or re-registration).
// Caller holds d.mu; the returned moves' AddServer RPCs must be
// issued outside the lock.
func (d *Dispatcher) reassignLocked(from int) []reassignment {
	live := d.liveLocked(nil)
	var partition []string
	for s, h := range d.home {
		if h == from {
			partition = append(partition, s)
		}
	}
	if len(partition) == 0 || len(live) == 0 {
		return nil
	}
	sort.Strings(partition)
	moves := make([]reassignment, 0, len(partition))
	for _, s := range partition {
		d.reassigned++
		moves = append(moves, d.moveLocked(s, from, d.assignAmongLocked(s, live), false))
	}
	return moves
}

// Rebalance migrates servers from over-full to under-full members
// until partition sizes differ by at most one. A migrated server starts
// a fresh HTM trace and belief on its new member — exactly a server
// re-registering — while its in-flight jobs keep resolving through the
// member that placed them.
func (d *Dispatcher) Rebalance() (moved int) {
	d.mu.Lock()
	moves := d.levelLocked()
	d.mu.Unlock()
	_ = d.applyMoves(moves) // failures are marked on the member and healed by re-registration
	return len(moves)
}

// levelLocked computes Rebalance's moves, among the live members.
// Caller holds d.mu.
func (d *Dispatcher) levelLocked() (moves []reassignment) {
	live := d.liveLocked(nil)
	if len(live) == 0 {
		return nil
	}
	repaired := false
	for {
		maxI, minI := live[0], live[0]
		for _, i := range live {
			if d.counts[i] > d.counts[maxI] {
				maxI = i
			}
			if d.counts[i] < d.counts[minI] {
				minI = i
			}
		}
		if d.counts[maxI]-d.counts[minI] < 2 {
			return moves
		}
		// Deterministic victim: the lexicographically last server of
		// the over-full member.
		victim, found := "", false
		for name, i := range d.home {
			if i == maxI && (!found || name > victim) {
				victim, found = name, true
			}
		}
		if !found {
			// d.counts says member maxI is over-full but d.home maps no
			// server to it: the routing state disagrees with itself.
			// Rebuild counts from home (the authoritative map) once and
			// retry; if the disagreement persists, stop rather than loop
			// forever on a phantom victim.
			if repaired {
				return moves
			}
			repaired = true
			clear(d.counts)
			for _, i := range d.home {
				if i >= 0 && i < len(d.counts) {
					d.counts[i]++
				}
			}
			continue
		}
		moves = append(moves, d.moveLocked(victim, maxI, minI, true))
	}
}

// applyMoves issues the member calls of computed moves: the withdrawal
// from a live source, then the AddServer. Failures are collected, not
// unwound: the assignment is already recorded, and the server's own
// re-registration (which replays AddServer idempotently to its recorded
// member) heals a move the call lost. Caller must NOT hold d.mu.
func (d *Dispatcher) applyMoves(moves []reassignment) error {
	var errs []error
	for _, mv := range moves {
		if mv.from != nil {
			if err := mv.from.RemoveServer(mv.server); err != nil {
				errs = append(errs, d.memberErr(mv.from, err))
			}
		}
		if err := mv.m.AddServer(mv.server); err != nil {
			errs = append(errs, fmt.Errorf("reassign %s: %w", mv.server, d.callFailed(mv.to, mv.m, err)))
		}
	}
	return errors.Join(errs...)
}

// Leave departs member name gracefully: the member stops being
// routed, its partition is reassigned among the survivors
// immediately, and — unlike an eviction — no readmission probe ever
// dials it again. A later Join under the same name rejoins cleanly
// (AddMember clears the departed flag); the member then starts with
// an empty partition and accretes servers as they register.
func (d *Dispatcher) Leave(name string) error {
	d.mu.Lock()
	idx := d.markLeftLocked(name)
	if idx < 0 {
		d.mu.Unlock()
		return fmt.Errorf("%s: leave: unknown member %s", d.tag, name)
	}
	moves := d.reassignLocked(idx)
	d.mu.Unlock()
	return d.applyMoves(moves)
}

// markLeftLocked flags member name as departed, cancels its event
// subscription and returns its index (-1 when unknown). Caller holds
// d.mu.
func (d *Dispatcher) markLeftLocked(name string) int {
	for i, ms := range d.members {
		if ms.m.Name() == name {
			if ms.unsub != nil {
				ms.unsub()
				ms.unsub = nil
			}
			ms.left = true
			return i
		}
	}
	return -1
}

// MarkLeft records a graceful departure WITHOUT reassigning — the
// standby's mirror of Leave. A follower must track membership (so a
// later promotion does not adopt the departed member's stale
// partition) but must not mutate the federation: only the leader
// issues the AddServer moves. On promotion, the departed member's
// leftover servers (if the old leader died mid-reassignment) are
// picked up by ReassignDead or by the servers' own re-registration.
func (d *Dispatcher) MarkLeft(name string) {
	d.mu.Lock()
	d.markLeftLocked(name)
	d.mu.Unlock()
}

// ReassignDead re-partitions the servers of members whose eviction
// has outlasted Config.ReassignAfter — the self-healing tick, called
// from the leader's gossip loop. A no-op when ReassignAfter is 0
// (the pre-HA behavior: a dead member's partition waits for its
// return) and on members that already left (Leave reassigned them).
func (d *Dispatcher) ReassignDead() {
	if d.cfg.ReassignAfter <= 0 {
		return
	}
	d.mu.Lock()
	now := d.cfg.Now()
	var moves []reassignment
	for i, ms := range d.members {
		if ms.evicted && !ms.left && d.counts[i] > 0 && now.Sub(ms.evictedAt) >= d.cfg.ReassignAfter {
			moves = append(moves, d.reassignLocked(i)...)
		}
	}
	d.mu.Unlock()
	// Best-effort like the gossip tick it rides on; failures are
	// marked on the target member and healed by re-registration.
	_ = d.applyMoves(moves)
}

// Reassigned returns the total number of server moves performed by
// Leave and ReassignDead — the telemetry counter behind
// casched_fed_reassigned_servers_total.
func (d *Dispatcher) Reassigned() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reassigned
}

// AdoptPartition seeds the dispatcher's home/counts state with a
// member's self-reported partition, skipping servers already owned —
// the promotion path's bootstrap (a standby never saw the leader's
// registrations). Existing assignments always win: a server the
// promoting dispatcher already routed must not move.
func (d *Dispatcher) AdoptPartition(name string, servers []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, ms := range d.members {
		if ms.m.Name() != name || ms.left {
			continue
		}
		for _, s := range servers {
			if _, ok := d.home[s]; ok {
				continue
			}
			d.home[s] = i
			d.counts[i]++
		}
		return
	}
}

// eachLive runs fn on every live member's handle, in parallel and
// outside the dispatch lock (each call may be a member RPC), and waits.
func (d *Dispatcher) eachLive(fn func(m Member)) {
	d.mu.Lock()
	var live []Member
	for _, ms := range d.members {
		if !ms.evicted && !ms.left {
			live = append(live, ms.m)
		}
	}
	d.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range live {
		wg.Add(1)
		d.cfg.spawn(func() {
			defer wg.Done()
			fn(m)
		})
	}
	wg.Wait()
}

// AdoptPartitions queries every live partition-capable member for its
// current server set and adopts the answers. Members that fail the
// query are skipped — their servers re-register through the failover
// book anyway, which rebuilds the same state more slowly.
func (d *Dispatcher) AdoptPartitions() {
	d.eachLive(func(m Member) {
		if src, ok := m.(PartitionSource); ok {
			if servers, ok, err := src.Partition(); err == nil && ok {
				d.AdoptPartition(m.Name(), servers)
			}
		}
	})
}

// AdoptPlacements installs a standby follower's replicated job
// placement map and arms the resume dedup: from now on, Submit
// answers requests for already-placed jobs with the recorded decision
// instead of placing again. Records for members the dispatcher does
// not know (or that already exist locally) are skipped.
func (d *Dispatcher) AdoptPlacements(placed map[int]ha.Placement) {
	d.mu.Lock()
	defer d.mu.Unlock()
	byName := make(map[string]int, len(d.members))
	for i, ms := range d.members {
		byName[ms.m.Name()] = i
	}
	for job, p := range placed {
		if _, ok := d.placed[job]; ok {
			continue
		}
		i, ok := byName[p.Member]
		if !ok || d.members[i].left {
			continue
		}
		d.placed[job] = placedRec{member: i, server: p.Server, at: p.At}
	}
	d.resume = true
}

// FollowRelay pulls every live relay-capable member's ledger delta
// from the follower's own cursor and folds it into the follower's
// placement mirror — the standby's replication tick, and the
// promotion path's final synchronous pull. It deliberately does NOT
// touch the dispatcher's routing views or failure counters: a standby
// observes, it never routes or evicts. Ledger head positions from the
// last gossiped summaries are noted first, so replication lag is
// measurable even between pulls.
func (d *Dispatcher) FollowRelay(f *ha.Follower) {
	d.mu.Lock()
	for _, ms := range d.members {
		if _, ok := ms.m.(RelaySource); ok && !ms.evicted && !ms.left && ms.summary.HasRelay {
			f.NoteLedger(ms.m.Name(), ms.summary.RelaySeq)
		}
	}
	d.mu.Unlock()
	d.eachLive(func(m Member) {
		if src, ok := m.(RelaySource); ok {
			if delta, ok, err := src.RelaySince(f.Cursor(m.Name())); err == nil && ok {
				f.Observe(m.Name(), delta)
			}
		}
	})
}

// FenceMembers stamps every live fence-capable member with the new
// leader's term (best-effort): from the first fenced commit on, the
// members refuse work from any older term, closing the window where a
// deposed-but-unaware leader could still place.
func (d *Dispatcher) FenceMembers(term uint64) {
	d.eachLive(func(m Member) {
		if fc, ok := m.(Fencer); ok {
			_ = fc.Fence(term)
		}
	})
}
