package agent

import "casched/internal/relay"

// RelayLedger exposes the core's relay event ledger (nil unless
// Config.Relay is on). Transports serve federation relay pulls from
// it.
func (c *Core) RelayLedger() *relay.Ledger { return c.relayLog }

// RelaySince returns the relay events after the given sequence number.
// ok is false when the relay is off — callers (the federation member
// wire) report "relay unsupported" so the dispatcher falls back to
// summary-only routing.
func (c *Core) RelaySince(after uint64) (relay.Delta, bool) {
	if c.relayLog == nil {
		return relay.Delta{}, false
	}
	return c.relayLog.Since(after), true
}

// LoadSummary is a consolidated snapshot of the core's routing
// signals, captured under one lock acquisition so the relay sequence
// number is consistent with the in-flight and projected-ready state it
// stamps — the invariant the dispatcher's rebase-then-fold accounting
// depends on. It is what a federation member publishes (fed.Summary).
type LoadSummary struct {
	// InFlight and Servers feed the cheap balance signal (in-flight per
	// server, the classic hierarchical-agent ranking).
	InFlight int
	Servers  int
	// MinReady is the HTM-backed drain signal: the earliest projected
	// instant at which one of the servers drains its live work, an
	// absolute experiment date comparable across members against a
	// common arrival anchor. HasMinReady is false for monitor-only
	// heuristics, where routing falls back to the in-flight signal.
	MinReady    float64
	HasMinReady bool
	// TenantInFlight splits InFlight per tenant (raw tenant strings,
	// "" for untenanted work), so stale-mode routing ranks members on
	// the submitting tenant's own backlog. Nil without tenanted work.
	TenantInFlight map[string]int
	// ServerReady maps each server to its projected drain instant — the
	// per-server breakdown of MinReady that relay-based routing prices
	// placements against. Published only with the relay on (nil for
	// monitor-only heuristics with no HTM projection).
	ServerReady map[string]float64
	// RelaySeq is the relay ledger sequence the snapshot includes
	// events up to; HasRelay reports whether the relay is on at all (a
	// dispatcher falls back to summary-only stale routing without it).
	RelaySeq uint64
	HasRelay bool
}

// LoadSummary captures the core's load state in one consistent
// snapshot. Relay appends happen under the core lock, so RelaySeq read
// here exactly delimits which relayed events the counts already
// include.
func (c *Core) LoadSummary() LoadSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := LoadSummary{
		InFlight: len(c.jobs),
		Servers:  len(c.order),
	}
	if len(c.tenantLoad) > 0 {
		s.TenantInFlight = make(map[string]int, len(c.tenantLoad))
		for t, n := range c.tenantLoad {
			s.TenantInFlight[t] = n
		}
	}
	if c.htmMgr != nil {
		s.MinReady, s.HasMinReady = c.htmMgr.MinProjectedReady()
	}
	if c.relayLog != nil {
		s.HasRelay = true
		s.RelaySeq = c.relayLog.Seq()
		// The per-server breakdown only feeds relay-based routing, so
		// relay-off deployments keep the historical summary cost.
		if c.htmMgr != nil {
			s.ServerReady = c.htmMgr.ProjectedReadyAll()
		}
	}
	return s
}
