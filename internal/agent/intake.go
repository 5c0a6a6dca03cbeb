package agent

import (
	"errors"
	"fmt"

	"casched/internal/fair"
)

// This file is the Core's multi-tenant intake path: the token-bucket
// gate, the deadline admission test and the fair-share arbitration of
// multi-tenant batches. The pipeline is
//
//	caller → intake gate → fairness arbiter → heuristic
//
// where each stage is inert unless configured (no bucket, no ledger,
// admission off), collapsing the pipeline back to the historical
// "caller → heuristic" path — the parity guarantee single-tenant
// deployments rely on.

// tenantPath maps a request tenant to its fair-ledger path; the
// anonymous stream arbitrates under a reserved default name so it
// still gets a weighted share when mixed with tagged traffic.
func tenantPath(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// multiTenant reports whether a batch spans more than one tenant —
// the condition under which arbitration can change anything.
func multiTenant(reqs []Request) bool {
	if len(reqs) == 0 {
		return false
	}
	first := reqs[0].Tenant
	for _, r := range reqs[1:] {
		if r.Tenant != first {
			return true
		}
	}
	return false
}

// ShedEvent is the EventShed record of a refused request.
func ShedEvent(req Request, reason string) Event {
	return Event{Kind: EventShed, Time: req.Arrival, JobID: req.JobID,
		TaskID: req.TaskID, Attempt: req.Attempt,
		Tenant: req.Tenant, Deadline: req.Deadline, Reason: reason}
}

// shedLocked emits the EventShed record for a refused request. Caller
// holds c.mu.
func (c *Core) shedLocked(req Request, reason string) { c.emit(ShedEvent(req, reason)) }

// IntakeGate runs a token bucket over a batch in submission order — the
// one intake gate, in front of a core or of a dispatch layer (errors
// are prefixed with layer). It returns the admitted requests, their
// positions in the original batch (nil without a bucket, meaning "all,
// in place"), and one ErrThrottled per refused request, each of which
// is handed to shed first. Scatter undoes the compaction.
func IntakeGate(bucket *fair.TokenBucket, reqs []Request, shed func(Request, string), layer string) (live []Request, keep []int, errs []error) {
	if bucket == nil {
		return reqs, nil, nil
	}
	live = make([]Request, 0, len(reqs))
	keep = make([]int, 0, len(reqs))
	for i, req := range reqs {
		if !bucket.Take(req.Arrival) {
			shed(req, ShedThrottled)
			errs = append(errs, fmt.Errorf("%s: batch job %d: %w", layer, req.JobID, ErrThrottled))
			continue
		}
		live = append(live, req)
		keep = append(keep, i)
	}
	return live, keep, errs
}

// Scatter maps the decisions for an IntakeGate's admitted requests back
// to the caller's total positions; refused positions stay zero.
func Scatter(decs []Decision, keep []int, total int) []Decision {
	if keep == nil {
		return decs
	}
	out := make([]Decision, total)
	for k, pos := range keep {
		out[pos] = decs[k]
	}
	return out
}

// admitDeadlineLocked is the deadline admission test: it accepts a
// request when at least one candidate's predicted completion meets the
// deadline, and sheds with ErrDeadlineUnmet otherwise. The prediction
// reuses the signals the heuristics themselves schedule on — the HTM
// projected drain instant of each candidate (the PR 4 routing memo)
// when a trace is available, the NetSolve load estimate otherwise — so
// admission and placement agree about the state of the pool. Requests
// without a deadline, or with admission off, always pass. Caller holds
// c.mu.
func (c *Core) admitDeadlineLocked(req Request, candidates []string) error {
	if !c.cfg.Admission || req.Deadline <= 0 {
		return nil
	}
	if c.htmMgr != nil {
		if c.htmMgr.MeetsDeadline(req.Spec, req.Arrival, req.Deadline, candidates) {
			return nil
		}
	} else {
		info := coreLoadInfo{c}
		for _, server := range candidates {
			// Monitor heuristics: the belief load is the number of
			// tasks ahead; first-order completion estimate as in the
			// paper's MCT-over-monitor model.
			if cost, ok := req.Spec.Cost(server); ok &&
				req.Arrival+(info.LoadEstimate(server)+1)*cost.Total() <= req.Deadline {
				return nil
			}
		}
	}
	return fmt.Errorf("agent: job %d (deadline %.3f): %w", req.JobID, req.Deadline, ErrDeadlineUnmet)
}

// submitBatchFairLocked is the arbitrated batch path: requests queue
// per tenant in submission order, and the fair ledger repeatedly picks
// the backlogged tenant furthest behind its weighted share to offer
// its head task to the heuristic. The fair clocks are advanced by
// commitLocked as each placement lands, so every pick sees the service
// the previous one consumed. Failed requests drop out of their queue
// without advancing their tenant's clock. Caller holds c.mu.
func (c *Core) submitBatchFairLocked(reqs []Request) ([]Decision, error) {
	out := make([]Decision, len(reqs))
	var errs []error
	queues := make(map[string][]int)
	paths := make([]string, 0, 4)
	for i, req := range reqs {
		p := tenantPath(req.Tenant)
		if _, ok := queues[p]; !ok {
			paths = append(paths, p)
		}
		queues[p] = append(queues[p], i)
	}
	backlogged := make([]string, 0, len(paths))
	for {
		backlogged = backlogged[:0]
		for _, p := range paths {
			if len(queues[p]) > 0 {
				backlogged = append(backlogged, p)
			}
		}
		if len(backlogged) == 0 {
			break
		}
		p := c.ledger.Pick(backlogged)
		pos := queues[p][0]
		queues[p] = queues[p][1:]
		req := reqs[pos]
		d, err := c.submitLocked(req)
		if err != nil {
			if errors.Is(err, ErrDeadlineUnmet) {
				c.shedLocked(req, ShedDeadline)
			}
			errs = append(errs, fmt.Errorf("agent: batch job %d: %w", req.JobID, err))
			continue
		}
		out[pos] = d
	}
	return out, errors.Join(errs...)
}

// TenantInFlight returns the number of placed-but-uncompleted jobs per
// tenant (key "" is the anonymous stream) — the per-tenant load signal
// dispatch layers gossip so stale-mode routing stays fair.
func (c *Core) TenantInFlight() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.tenantLoad))
	for k, v := range c.tenantLoad {
		out[k] = v
	}
	return out
}
