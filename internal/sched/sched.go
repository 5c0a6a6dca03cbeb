// Package sched implements the scheduling heuristics of the paper:
// the NetSolve MCT baseline (monitor-driven Minimum Completion Time),
// and the three HTM-based heuristics of §4 — HMCT (Figure 2),
// MP (Figure 3) and MSF (Figure 4) — plus the related-work comparator
// MNI (Weissman's minimize-number-of-interferences, §6) and two
// reference policies (Random, RoundRobin).
//
// A Scheduler receives a Context describing what the agent knows at the
// arrival instant of a task and returns the name of the chosen server.
// Heuristics never mutate the Context; committing the decision (telling
// the HTM, updating load corrections) is the agent's job.
package sched

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"casched/internal/htm"
	"casched/internal/stats"
	"casched/internal/task"
)

// ErrNoServer is returned when no candidate server can run the task.
var ErrNoServer = errors.New("sched: no candidate server")

// tieEps is the tolerance under which two objective values are
// considered equal, triggering tie-breaking rules.
const tieEps = 1e-9

// LoadInfo is the monitor-based view of the system the NetSolve MCT
// baseline uses: the agent's current belief of each server's load
// (number of running tasks), built from periodic reports plus the two
// NetSolve load-correction mechanisms.
type LoadInfo interface {
	// LoadEstimate returns the agent's belief of the number of tasks
	// currently running on the server.
	LoadEstimate(server string) float64
}

// Evaluator is the HTM surface heuristics consume: candidate
// evaluation and projected ready times. *htm.Manager implements it
// directly; the agent core substitutes caching wrappers (batch
// submission) without the heuristics noticing.
type Evaluator interface {
	// EvaluateAll predicts placing job id on every candidate; see
	// htm.Manager.EvaluateAll for the error contract.
	EvaluateAll(id int, spec *task.Spec, arrival float64, candidates []string) ([]htm.Prediction, error)
	// ProjectedReady returns the instant the server drains its current
	// work (the OLB/KPB/SA "machine ready time").
	ProjectedReady(server string) (float64, bool)
}

// BufferedEvaluator is an Evaluator that can write predictions into a
// caller-owned buffer reused across decisions (htm.Manager implements
// it). predictAll uses it together with Context.PredBuf to keep the
// per-decision heuristic path free of heap allocation; evaluators
// without it (caching batch wrappers) fall back to EvaluateAll.
type BufferedEvaluator interface {
	Evaluator
	// EvaluateAllInto is EvaluateAll appending into out[:0]; see
	// htm.Manager.EvaluateAllInto.
	EvaluateAllInto(id int, spec *task.Spec, arrival float64, candidates []string, out []htm.Prediction) ([]htm.Prediction, error)
}

// Context is everything the agent exposes to a heuristic for one
// scheduling decision.
type Context struct {
	// Now is the arrival date of the task being scheduled.
	Now float64
	// Task is the arriving task.
	Task *task.Task
	// JobID is the identifier under which the placement would be
	// recorded in the HTM (distinct from Task.ID on resubmissions).
	JobID int
	// Candidates are the alive servers able to solve the task's
	// problem, in a stable order.
	Candidates []string
	// HTM is the historical trace manager's evaluation surface (nil
	// for heuristics that do not use it).
	HTM Evaluator
	// Info is the monitor-based load view (nil for heuristics that do
	// not use it).
	Info LoadInfo
	// RNG is the decision-local randomness source (used by Random and
	// by randomized tie-breaking).
	RNG *stats.RNG
	// PredBuf is an optional prediction buffer owned by the driver and
	// threaded through consecutive decisions: when the HTM implements
	// BufferedEvaluator, predictAll evaluates into it (and grows it in
	// place) instead of allocating a fresh slice per decision. Contents
	// are scratch — valid only within one Choose call.
	PredBuf []htm.Prediction
}

// Scheduler chooses a server for each arriving task.
type Scheduler interface {
	// Name identifies the heuristic in reports ("MCT", "HMCT", ...).
	Name() string
	// Choose returns the chosen server name.
	Choose(ctx *Context) (string, error)
}

// Choice is a scored scheduling decision: the chosen server together
// with the objective value the heuristic minimized to pick it. Scores
// from disjoint candidate partitions are comparable as long as the
// partitions run the same heuristic, which is what lets a sharded
// dispatch layer fan a decision out over per-shard winners and commit
// on the global minimum.
type Choice struct {
	// Server is the chosen server.
	Server string
	// Score is the heuristic's primary objective value for Server
	// (lower wins): the estimated or predicted completion date for
	// MCT/HMCT, the total perturbation for MP, the sum-flow increase
	// for MSF, the interference count for MNI.
	Score float64
	// Tie is the secondary objective used to break Score ties (lower
	// wins). The paper's heuristics all fall back to the new task's
	// completion date; heuristics without a secondary rule repeat
	// Score here.
	Tie float64
}

// ScoredScheduler is implemented by heuristics whose Choose minimizes
// a numeric objective. ChooseScored is Choose that additionally
// returns the minimized objective, so a dispatch layer can compare
// winners across disjoint candidate partitions (sharded server pools).
// Reference policies without an objective (Random, RoundRobin) do not
// implement it.
type ScoredScheduler interface {
	Scheduler
	// ChooseScored returns the chosen server and the objective values
	// behind the decision. The choice is identical to Choose's.
	ChooseScored(ctx *Context) (Choice, error)
}

// UsesHTM reports whether the scheduler requires ctx.HTM. The agent
// uses this to skip HTM bookkeeping for monitor-based heuristics.
func UsesHTM(s Scheduler) bool {
	type htmUser interface{ usesHTM() bool }
	if u, ok := s.(htmUser); ok {
		return u.usesHTM()
	}
	return false
}

// EvaluatorFor returns the HTM evaluation surface the agent hands to
// the scheduler on single decisions: the Manager's pruning view for the
// objective the scheduler declares it minimises (htm.NoObjective, and
// with it exhaustive evaluation, for one that declares none), with the
// heuristics' tie tolerance. A heuristic declares its objective the way
// it declares usesHTM, so wrappers that embed it inherit both. Declaring
// one commits the heuristic to read only the predictions within tieEps of
// the least objective and to take the first in name order among equal
// values: the pruned pass answers for a class of idle servers once, under
// its first idle member by name, and drops the later-named predictions of
// the same bits (TestObjectiveHeuristicsPickFirstByName).
func EvaluatorFor(s Scheduler, m *htm.Manager) BufferedEvaluator {
	return m.Minimizing(objectiveOf(s), tieEps)
}

// objectiveOf returns the objective the scheduler declares.
func objectiveOf(s Scheduler) htm.Objective {
	if o, ok := s.(interface{ objective() htm.Objective }); ok {
		return o.objective()
	}
	return htm.NoObjective
}

// registry is the single source of truth for the heuristic family, in
// presentation order: the paper's four, the related-work comparators,
// then the reference policies. ByName, Names and All all derive from
// it, so adding a heuristic is one entry here.
var registry = []struct {
	name string
	new  func() Scheduler
}{
	{"MCT", func() Scheduler { return NewMCT() }},
	{"HMCT", func() Scheduler { return NewHMCT() }},
	{"MP", func() Scheduler { return NewMP() }},
	{"MSF", func() Scheduler { return NewMSF() }},
	{"MNI", func() Scheduler { return NewMNI() }},
	{"MET", func() Scheduler { return NewMET() }},
	{"OLB", func() Scheduler { return NewOLB() }},
	{"KPB", func() Scheduler { return NewKPB() }},
	{"SA", func() Scheduler { return NewSA() }},
	{"Random", func() Scheduler { return NewRandom() }},
	{"RoundRobin", func() Scheduler { return NewRoundRobin() }},
}

// ByName constructs the named scheduler. Recognized names: the
// paper's MCT, HMCT, MP, MSF; the related-work comparators MNI
// (Weissman) and MET, OLB, KPB, SA (Maheswaran et al., the paper's
// reference [10]); and the Random/RoundRobin reference policies.
// Lookup is case-insensitive ("msf" and "MSF" both work).
func ByName(name string) (Scheduler, error) {
	for _, e := range registry {
		if strings.EqualFold(e.name, name) {
			return e.new(), nil
		}
	}
	return nil, fmt.Errorf("sched: unknown heuristic %q", name)
}

// Names lists every recognized heuristic in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// All returns a fresh instance of every heuristic, in the paper's
// presentation order followed by the extensions.
func All() []Scheduler {
	out := make([]Scheduler, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.new())
	}
	return out
}

// chooseVia implements Choose on top of a heuristic's ChooseScored.
func chooseVia(s ScoredScheduler, ctx *Context) (string, error) {
	c, err := s.ChooseScored(ctx)
	if err != nil {
		return "", err
	}
	return c.Server, nil
}

// argminScan returns the first candidate within tieEps of the minimum
// objective, the number of such ties, and the minimum itself. It is the
// ties[0]/len(ties) pair of the tie-slice argmin the heuristics
// historically built, computed by scanning so the decision path does
// not allocate.
func argminScan(preds []htm.Prediction, objective func(htm.Prediction) float64) (w htm.Prediction, ties int, best float64) {
	best = math.Inf(1)
	for _, p := range preds {
		if v := objective(p); v < best {
			best = v
		}
	}
	for _, p := range preds {
		if objective(p) <= best+tieEps {
			if ties == 0 {
				w = p
			}
			ties++
		}
	}
	return w, ties, best
}

// argminTieBreak returns the first prediction minimizing secondary
// among those within tieEps of the primary minimum — the nested-argmin
// tie-break every deterministic heuristic applies, without building the
// intermediate tie slices. The scan order (preds order) matches the
// historical tie-slice construction, so the winner is bit-identical.
func argminTieBreak(preds []htm.Prediction, primary, secondary func(htm.Prediction) float64) htm.Prediction {
	best := math.Inf(1)
	for _, p := range preds {
		if v := primary(p); v < best {
			best = v
		}
	}
	thr := best + tieEps
	sbest := math.Inf(1)
	for _, p := range preds {
		if primary(p) <= thr {
			if v := secondary(p); v < sbest {
				sbest = v
			}
		}
	}
	sthr := sbest + tieEps
	for _, p := range preds {
		if primary(p) <= thr && secondary(p) <= sthr {
			return p
		}
	}
	// Unreachable with a non-empty preds: the double minimum is
	// realized by at least one element.
	return htm.Prediction{}
}

// predictAll evaluates every candidate with the HTM, failing when none
// is feasible. Per-candidate evaluation failures are tolerated as long
// as at least one candidate produced a prediction; when every
// evaluation failed the joined error is surfaced, so a task no server
// can currently evaluate is distinguishable from a task no server
// solves (ErrNoServer).
func predictAll(ctx *Context) ([]htm.Prediction, error) {
	if ctx.HTM == nil {
		return nil, errors.New("sched: heuristic requires the HTM")
	}
	var preds []htm.Prediction
	var err error
	if be, ok := ctx.HTM.(BufferedEvaluator); ok {
		preds, err = be.EvaluateAllInto(ctx.JobID, ctx.Task.Spec, ctx.Now, ctx.Candidates, ctx.PredBuf)
		if preds != nil {
			// Keep the grown buffer for the driver's next decision.
			ctx.PredBuf = preds
		}
	} else {
		preds, err = ctx.HTM.EvaluateAll(ctx.JobID, ctx.Task.Spec, ctx.Now, ctx.Candidates)
	}
	if len(preds) == 0 {
		if err == htm.ErrBeaten {
			// Below a ceiling (htm.Minimizer.Below) no candidate can win:
			// returned as is, the caller compares it without allocating.
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("sched: every candidate evaluation failed: %w", err)
		}
		return nil, ErrNoServer
	}
	return preds, nil
}
