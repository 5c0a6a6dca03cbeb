package agent

import (
	"fmt"

	"casched/internal/sched"
	"casched/internal/task"
)

// This file is the Core's shard surface: the evaluate/commit split a
// dispatch layer (internal/cluster) uses to fan one decision out over
// several cores — each core evaluates the request against its own
// server partition, the dispatcher compares the scored winners and
// commits on exactly one core. Submit remains the single-core
// evaluate+commit under one lock acquisition; these hooks expose the
// same two halves as separate critical sections.

// Candidate is a provisional shard-local decision: the heuristic's
// choice among this core's servers, before any commit. Nothing in the
// core's state changes when a Candidate is produced.
type Candidate struct {
	// Server is the chosen server.
	Server string
	// Score and Tie are the heuristic's objective values
	// (sched.Choice): comparable across cores running the same
	// heuristic, which is what the dispatcher minimizes over.
	// Meaningful only when Scored is true.
	Score, Tie float64
	// Scored reports whether the heuristic implements
	// sched.ScoredScheduler. Unscored candidates (Random, RoundRobin)
	// cannot be compared across cores; dispatchers fall back to
	// rotation.
	Scored bool
}

// Evaluate runs the heuristic for one request against this core's
// servers without committing: no HTM placement, no belief correction,
// no event. ErrUnschedulable means no server of this core solves the
// task — for a shard, a normal "not my partition" condition.
func (c *Core) Evaluate(req Request) (Candidate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evaluateLocked(req, c.eval)
}

// EvaluateBelow is Evaluate for a dispatcher that already holds a
// candidate of Score ceiling from another core: the core's pruned pass
// starts below that ceiling (htm.Minimizer.Below), so its candidates
// that cannot come within reach of it are not projected. It returns
// Evaluate's candidate, or ErrBeaten, unwrapped, when the least
// objective among the core's candidates exceeds ceiling plus the
// heuristic's tie tolerance: then nothing here can pass the ceiling's
// candidate (see cluster.BetterCandidate). A heuristic that declares no
// objective, or a core without an HTM, ignores the ceiling.
func (c *Core) EvaluateBelow(req Request, ceiling float64) (Candidate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.minimizer == nil {
		return c.evaluateLocked(req, c.eval)
	}
	c.below = c.minimizer.Below(ceiling)
	return c.evaluateLocked(req, &c.below)
}

// Commit commits a previously evaluated placement on this core:
// HTM commit, prediction tracking, assignment correction, decision
// event — exactly Submit's commit half. The server must still be
// registered and able to solve the task; a shard whose membership
// changed between Evaluate and Commit rejects the commit rather than
// corrupting its state.
func (c *Core) Commit(req Request, server string) (Decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Spec == nil {
		return Decision{}, fmt.Errorf("agent: job %d has no spec", req.JobID)
	}
	if _, ok := c.beliefs[server]; !ok {
		return Decision{}, fmt.Errorf("agent: commit of task %d on unregistered server %q",
			req.TaskID, server)
	}
	if _, ok := req.Spec.Cost(server); !ok {
		return Decision{}, fmt.Errorf("agent: server %q cannot solve task %d", server, req.TaskID)
	}
	return c.commitLocked(req, server)
}

// CanSolve reports whether at least one registered server solves the
// task — the dispatcher's shard-eligibility check. It reads the spec's
// candidate list, resolved once per spec and membership, and takes no
// projections.
func (c *Core) CanSolve(spec *task.Spec) bool {
	if spec == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.candidatesLocked(spec)) > 0
}

// InFlight returns the number of jobs placed but not yet completed —
// the dispatcher's cheap load signal for routing.
func (c *Core) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobs)
}

// MinProjectedReady returns the HTM-backed routing signal: the
// earliest projected instant at which one of this core's servers
// drains its live work (min over the partition of the per-server
// ProjectedReady). A shard with an idle server reports its trace
// time; a uniformly busy shard reports a later date. Projected drain
// instants are absolute experiment dates, so a dispatcher compares
// them across cores against a common anchor (the burst's arrival
// date) regardless of how far each core's trace clock has advanced.
// ok is false for monitor-based heuristics (no HTM) and for a core
// with no servers, where dispatchers fall back to the in-flight
// signal.
func (c *Core) MinProjectedReady() (float64, bool) {
	if c.htmMgr == nil {
		return 0, false
	}
	return c.htmMgr.MinProjectedReady()
}

// ServerCount returns the number of registered servers.
func (c *Core) ServerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}

// Scheduler returns the configured heuristic.
func (c *Core) Scheduler() sched.Scheduler { return c.cfg.Scheduler }
