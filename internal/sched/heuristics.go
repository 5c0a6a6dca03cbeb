package sched

import (
	"math"

	"casched/internal/htm"
)

// MCT is the NetSolve baseline (§1, §5): Minimum Completion Time driven
// by monitor information. For each candidate server it estimates the
// new task's completion as
//
//	now + input + compute × (1 + load) + output
//
// where load is the agent's (possibly stale) belief of the number of
// tasks running on the server — NetSolve's "fraction of the currently
// available CPU speed" estimate. Its two known flaws, which the paper
// exploits, are reproduced faithfully: the load term assumes the
// server's load stays constant for the whole task duration, and it
// ignores the perturbation inflicted on already-running tasks.
type MCT struct{}

// NewMCT returns the NetSolve MCT baseline.
func NewMCT() *MCT { return &MCT{} }

// Name implements Scheduler.
func (*MCT) Name() string { return "MCT" }

// Choose implements Scheduler.
func (m *MCT) Choose(ctx *Context) (string, error) { return chooseVia(m, ctx) }

// ChooseScored implements ScoredScheduler; the score is the NetSolve
// completion estimate.
func (*MCT) ChooseScored(ctx *Context) (Choice, error) {
	best, bestServer := math.Inf(1), ""
	for _, s := range ctx.Candidates {
		cost, ok := ctx.Task.Spec.Cost(s)
		if !ok {
			continue
		}
		load := 0.0
		if ctx.Info != nil {
			load = ctx.Info.LoadEstimate(s)
		}
		completion := ctx.Now + cost.Input + cost.Compute*(1+load) + cost.Output
		if completion < best {
			best, bestServer = completion, s
		}
	}
	if bestServer == "" {
		return Choice{}, ErrNoServer
	}
	return Choice{Server: bestServer, Score: best, Tie: best}, nil
}

// HMCT is the Historical Minimum Completion Time heuristic (Figure 2):
// MCT relying on the HTM. The HTM simulates the mapping of the task on
// each server until its completion; the agent maps the task to the
// server minimizing that finishing date. Like MCT it expects to
// minimize the makespan; its drawback is overloading the fastest
// servers.
type HMCT struct{}

// NewHMCT returns the HMCT heuristic.
func NewHMCT() *HMCT { return &HMCT{} }

// Name implements Scheduler.
func (*HMCT) Name() string { return "HMCT" }

func (*HMCT) usesHTM() bool { return true }

// objective declares what ChooseScored minimises, which lets the HTM
// prune (EvaluatorFor): argminScan reads only the predictions within
// tieEps of the least completion date and takes the first in name order
// among them, so a later-named prediction of the same bits, which the
// pass leaves out, could never be its choice.
func (*HMCT) objective() htm.Objective { return htm.MinCompletion }

// Choose implements Scheduler.
func (h *HMCT) Choose(ctx *Context) (string, error) { return chooseVia(h, ctx) }

// ChooseScored implements ScoredScheduler; the score is the HTM's
// predicted completion date.
func (*HMCT) ChooseScored(ctx *Context) (Choice, error) {
	preds, err := predictAll(ctx)
	if err != nil {
		return Choice{}, err
	}
	w, _, _ := argminScan(preds, func(p htm.Prediction) float64 { return p.Completion })
	return Choice{Server: w.Server, Score: w.Completion, Tie: w.Completion}, nil
}

// TieBreak selects how MP resolves equal-perturbation candidates.
type TieBreak int

const (
	// TieByCompletion picks the server minimizing the new task's
	// completion date (the paper's Figure 3 rule).
	TieByCompletion TieBreak = iota
	// TieRandom picks uniformly among the tied servers (ablation).
	TieRandom
)

// MP is the Minimum Perturbation heuristic (Figure 3): the task goes to
// the server minimizing the sum of perturbations Σ_j π_j; when all
// candidates tie (for instance at the beginning of a metatask), the
// server minimizing the new task's completion date is chosen. MP aims
// to give each already-placed task the best quality of service; its
// drawback is sub-optimal resource usage (a task can land on a slow
// idle server).
type MP struct {
	// Tie selects the tie-breaking policy (default: the paper's).
	Tie TieBreak
}

// NewMP returns the MP heuristic with the paper's tie-breaking rule.
func NewMP() *MP { return &MP{} }

// Name implements Scheduler.
func (*MP) Name() string { return "MP" }

func (*MP) usesHTM() bool { return true }

// Choose implements Scheduler.
func (m *MP) Choose(ctx *Context) (string, error) { return chooseVia(m, ctx) }

// ChooseScored implements ScoredScheduler; the score is the total
// perturbation, tie-broken by the new task's completion date.
func (m *MP) ChooseScored(ctx *Context) (Choice, error) {
	preds, err := predictAll(ctx)
	if err != nil {
		return Choice{}, err
	}
	perturbation := func(p htm.Prediction) float64 { return p.Perturbation }
	w, ties, best := argminScan(preds, perturbation)
	if ties > 1 {
		switch m.Tie {
		case TieRandom:
			if ctx.RNG != nil {
				// Same RNG draw and same winner as indexing the
				// historical tie slice: pick the k-th tie in preds order.
				k := ctx.RNG.Intn(ties)
				thr := best + tieEps
				for _, p := range preds {
					if p.Perturbation <= thr {
						if k == 0 {
							w = p
							break
						}
						k--
					}
				}
			}
		default:
			w = argminTieBreak(preds, perturbation,
				func(p htm.Prediction) float64 { return p.Completion })
		}
	}
	return Choice{Server: w.Server, Score: w.Perturbation, Tie: w.Completion}, nil
}

// MSF is the Minimum Sum Flow heuristic (Figure 4): it mixes HMCT's
// makespan objective with MP's quality-of-service objective by
// minimizing the increase of the system's total flow, i.e.
//
//	Σ_j π_j + (ρ'_{n+1} − a_{n+1})
//
// the total perturbation plus the new task's own flow. The paper notes
// this is equivalent to Weissman's MTI (minimize total interference).
type MSF struct{}

// NewMSF returns the MSF heuristic.
func NewMSF() *MSF { return &MSF{} }

// Name implements Scheduler.
func (*MSF) Name() string { return "MSF" }

func (*MSF) usesHTM() bool { return true }

// objective: argminTieBreak reads only the predictions within tieEps of
// the least sum-flow increase and takes the first in name order among
// equal completion dates (see HMCT.objective).
func (*MSF) objective() htm.Objective { return htm.MinSumFlow }

// Choose implements Scheduler.
func (m *MSF) Choose(ctx *Context) (string, error) { return chooseVia(m, ctx) }

// ChooseScored implements ScoredScheduler; the score is the sum-flow
// increase Σπ + flow, tie-broken by the completion date.
func (*MSF) ChooseScored(ctx *Context) (Choice, error) {
	preds, err := predictAll(ctx)
	if err != nil {
		return Choice{}, err
	}
	// Secondary objective: completion date, for determinism.
	w := argminTieBreak(preds, htm.Prediction.SumFlowObjective,
		func(p htm.Prediction) float64 { return p.Completion })
	return Choice{Server: w.Server, Score: w.SumFlowObjective(), Tie: w.Completion}, nil
}

// MNI is Weissman's Minimize-Number-of-Interferences heuristic (§6
// related work): the task goes to the server where the fewest
// already-placed tasks see their completion delayed; ties are broken by
// the new task's completion date.
type MNI struct{}

// NewMNI returns the MNI heuristic.
func NewMNI() *MNI { return &MNI{} }

// Name implements Scheduler.
func (*MNI) Name() string { return "MNI" }

func (*MNI) usesHTM() bool { return true }

// Choose implements Scheduler.
func (m *MNI) Choose(ctx *Context) (string, error) { return chooseVia(m, ctx) }

// ChooseScored implements ScoredScheduler; the score is the number of
// interfered tasks, tie-broken by the completion date.
func (*MNI) ChooseScored(ctx *Context) (Choice, error) {
	preds, err := predictAll(ctx)
	if err != nil {
		return Choice{}, err
	}
	w := argminTieBreak(preds, func(p htm.Prediction) float64 { return float64(p.Interfered) },
		func(p htm.Prediction) float64 { return p.Completion })
	return Choice{Server: w.Server, Score: float64(w.Interfered), Tie: w.Completion}, nil
}

// Random maps each task to a uniformly random candidate: the weakest
// reference policy.
type Random struct{}

// NewRandom returns the Random scheduler.
func NewRandom() *Random { return &Random{} }

// Name implements Scheduler.
func (*Random) Name() string { return "Random" }

// Choose implements Scheduler.
func (*Random) Choose(ctx *Context) (string, error) {
	var feasible []string
	for _, s := range ctx.Candidates {
		if _, ok := ctx.Task.Spec.Cost(s); ok {
			feasible = append(feasible, s)
		}
	}
	if len(feasible) == 0 {
		return "", ErrNoServer
	}
	if ctx.RNG == nil {
		return feasible[0], nil
	}
	return feasible[ctx.RNG.Intn(len(feasible))], nil
}

// RoundRobin cycles through the candidate servers: the classic
// load-oblivious reference policy.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns the RoundRobin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "RoundRobin" }

// Choose implements Scheduler.
func (r *RoundRobin) Choose(ctx *Context) (string, error) {
	var feasible []string
	for _, s := range ctx.Candidates {
		if _, ok := ctx.Task.Spec.Cost(s); ok {
			feasible = append(feasible, s)
		}
	}
	if len(feasible) == 0 {
		return "", ErrNoServer
	}
	s := feasible[r.next%len(feasible)]
	r.next++
	return s, nil
}

// MemoryAware wraps a scheduler with the §7 future-work extension:
// candidates whose projected memory demand plus the task's footprint
// would exceed their RAM+swap capacity are filtered out before the
// inner heuristic decides. If every candidate is filtered, the decision
// falls through to the inner heuristic on the full candidate list (the
// task must go somewhere).
type MemoryAware struct {
	// Inner is the wrapped heuristic.
	Inner Scheduler
	// Demand returns the current memory demand and the capacity
	// (RAM+swap) of a server, in MB; ok=false when unknown.
	Demand func(server string) (demand, capacity float64, ok bool)
}

// Name implements Scheduler.
func (m *MemoryAware) Name() string { return m.Inner.Name() + "+mem" }

func (m *MemoryAware) usesHTM() bool { return UsesHTM(m.Inner) }

// objective forwards the inner heuristic's: filtering the candidate
// list first does not change what the inner argmin reads.
func (m *MemoryAware) objective() htm.Objective { return objectiveOf(m.Inner) }

// Choose implements Scheduler.
func (m *MemoryAware) Choose(ctx *Context) (string, error) {
	if m.Demand == nil || ctx.Task.Spec.MemoryMB == 0 {
		return m.Inner.Choose(ctx)
	}
	var safe []string
	for _, s := range ctx.Candidates {
		d, cap, ok := m.Demand(s)
		if !ok || d+ctx.Task.Spec.MemoryMB <= cap {
			safe = append(safe, s)
		}
	}
	if len(safe) == 0 {
		return m.Inner.Choose(ctx)
	}
	inner := *ctx
	inner.Candidates = safe
	return m.Inner.Choose(&inner)
}
