// Package fed implements multi-agent federation: N cooperating agents
// (members), each owning a server partition, behind one Dispatcher
// that exchanges compact load summaries with them over a pluggable
// transport — the paper's single central agent generalized to the
// cooperating-agents extension its §7 sketches.
//
// The Dispatcher is cluster.Dispatcher — the one dispatch core, which
// the sharded cluster.Cluster drives over always-fresh in-process
// shards — here with the members behind a summary seam or a wire. Each
// member periodically publishes a Summary (in-flight count, server
// count, min projected drain instant from the HTM baseline memos);
// routing picks its mode per decision from the summaries' freshness:
//
//   - Fresh mode (every live member's summary younger than
//     StaleAfter): Submit fans the request out — every member
//     evaluates against its own partition (agent.Core.Evaluate, no
//     commit), the dispatcher compares the scored winners and commits
//     on exactly one member. With the in-process transport this is
//     decision-for-decision the sharded cluster.Cluster, which the
//     federated-vs-centralized parity test pins.
//
//   - Degraded mode (some member slow or partitioned): the dispatcher
//     stops waiting on the whole pool and routes each decision whole
//     to one member chosen by power-of-two-choices over the
//     last-known summaries — stale data routes approximately rather
//     than blocking exactly. The internal/experiments federation
//     study quantifies the sum-flow cost of this trade on the
//     paper's bursty workload.
//
// SubmitBatch always routes hierarchically (the cluster's
// power-of-two-choices over summary-backed backlog scores), fresh
// summaries simply being exact.
//
// Members that keep failing (transport errors, timeouts) are evicted after
// MaxFailures consecutive failures: their partition leaves the
// candidate pool and only a periodic readmission probe (a Summary
// fetch every ProbeInterval) still reaches them; the first successful
// probe readmits the member with a fresh summary. Jobs placed on a
// member stay accounted to it until their completion message arrives
// or the completion routing gives up.
//
// # Construction
//
// cluster.NewFederation builds a federation of in-process members from
// the options a cluster.Cluster takes. NewWithMembers builds one over
// caller-supplied handles (Remote, Chaos, test fakes), and StartServer
// runs one behind TCP for members that join over the wire.
//
// # Ordering
//
// The Dispatcher is safe for concurrent use. The dispatch lock (d.mu)
// covers membership, routing state, summaries and the deciding part of
// every submission: intake, mode selection, the Evaluate fan-out, the
// choice of the winner and the start of its commit. It does not cover
// the wait for the commit's answer.
//
// Every Remote is FIFO: it drives all of its member's calls over one
// framed connection, which the member serves sequentially in the order
// the frames were written (live.Agent.serveFramed), so "written before"
// is "served before" for any two calls of one handle — Evaluate,
// Commit, AddServer, RemoveServer, Fence and the rest alike. A
// fresh-mode decision's
// ordering point is therefore the moment its Commit is issued
// (StartCommit), not the moment it is answered: once decision A's
// Commit frame is written to member m, every call issued to m
// afterwards — decision B's Evaluate included — is served after A's
// commit. B's evaluations at the other members never depended on A. B
// therefore evaluates against exactly the state it would have seen had
// A been answered first, and the lock can be released while A's answer
// travels: B's fan-out overlaps A's commit round trip, reply
// bookkeeping and client reply. Concurrent submissions decide exactly
// like the same requests one at a time in ordering-point order
// (TestFanoutLinearizable); a single caller issues the same calls in
// the same order as when the lock was held throughout. The same order
// covers membership: an Evaluate written after a RemoveServer never
// names the removed server (TestCommitServedBeforeLaterEvaluate).
//
// The early release is a capability of the member transport, found by
// type assertion like the event and relay surfaces
// (cluster.CommitStarter). A member without it has its whole Commit run
// under the lock: InProcess, and wrappers that embed Member. The paths
// that delegate a whole decision keep the lock across their member
// calls — degraded routing, unscored rotation, SubmitBatch — and
// Complete, Report, AddServer, RemoveServer, summary and relay fetches
// run outside it. After the lock has been away, bookkeeping is applied
// to a member slot only while it still holds the handle that was called
// (a rejoin may swap it), and a fan-out whose commit was refused
// re-evaluates if another submission ran meanwhile
// (submitFanoutLocked).
//
// Who evaluates where is likewise read from the member. The fan-out
// gives every member of this package its own goroutine for the
// Evaluate — InProcess, Remote, Chaos and any wrapper: the call may
// block on I/O or on an injected fault, and the round trips overlap.
// Only the cluster's own shard members, which declare themselves always
// fresh, are evaluated inline in the caller's goroutine, never
// refreshed and never evicted; a dispatcher over nothing else reads no
// clock and pulls no summary on the submission path.
package fed

import (
	"casched/internal/agent"
	"casched/internal/cluster"
)

// The dispatch core lives in internal/cluster (live imports cluster and
// this package imports live, so it cannot sit here); the federation
// names it has always gone by are kept as aliases.
type (
	// Dispatcher is the federated dispatch layer (cluster.Dispatcher).
	Dispatcher = cluster.Dispatcher
	// Config parameterizes a Dispatcher (cluster.DispatcherConfig).
	Config = cluster.DispatcherConfig
	// Member is the dispatcher's handle on one federated agent.
	Member = cluster.Member
	// Summary is the load summary a member publishes.
	Summary = cluster.Summary
	// MemberInfo is a diagnostic snapshot of one member's routing state.
	MemberInfo = cluster.MemberInfo
	// WireStats is a member wire's traffic per decision-path call.
	WireStats = cluster.WireStats
	// WireOp is one kind of member call's traffic over a member wire.
	WireOp = cluster.WireOp
	// RelayStats aggregates the dispatcher's relay accounting.
	RelayStats = cluster.RelayStats
	// InProcess is the in-process Member behind the summary seam.
	InProcess = cluster.InProcess

	commitStarter   = cluster.CommitStarter
	eventSource     = cluster.EventSource
	finalPredictor  = cluster.FinalPredictor
	relaySource     = cluster.RelaySource
	partitionSource = cluster.PartitionSource
	fencer          = cluster.Fencer
)

// The member error taxonomy (see cluster.ErrUnreachable).
var (
	ErrNoMembers   = cluster.ErrNoMembers
	ErrUnreachable = cluster.ErrUnreachable
	ErrUncertain   = cluster.ErrUncertain
)

// NewInProcess wraps a core as a federation member.
func NewInProcess(name string, core *agent.Core) *InProcess {
	return cluster.NewInProcess(name, core)
}

// NewWithMembers constructs a Dispatcher over caller-supplied member
// handles (remote transports, test fakes). The configured heuristic
// name must match what the members run; members may also join later
// through AddMember.
func NewWithMembers(cfg Config, members []Member) (*Dispatcher, error) {
	return cluster.NewDispatcher(cfg, members)
}
