// Package scenario is the production scenario harness: declarative
// scenario families that compose a workload dimension (trace-driven
// CSV replay, diurnal inhomogeneous-Poisson day/night cycles,
// heavy-tailed service times, multi-tenant saturating mixes) with a
// chaos dimension (member flap/kill/rejoin, summary-channel partition
// with relay degradation, leader kill mid-burst under HA, slow-member
// latency injection) against the library's deployment shapes. Each
// family runs like the experiments-package studies — deterministic in
// its seeds, rendered as a committed benchmarks/scenario-*.txt table,
// headline claims pinned by test — and together they are the standing
// regression net the self-healing federation machinery is verified
// against.
package scenario

import (
	"fmt"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/task"
)

// Shape names one deployment shape of the library: the single agent
// core, the sharded cluster, the federation dispatcher over in-process
// members, and the replicated HA federation over real TCP.
type Shape string

const (
	ShapeCore         Shape = "core"
	ShapeCluster      Shape = "cluster"
	ShapeFederation   Shape = "federation"
	ShapeFederationHA Shape = "federation+ha"
)

// Family is one named scenario preset: a self-contained study run
// with committed defaults, rendered as a table for benchmarks/.
type Family struct {
	// Name is the preset name cmd/casscenario selects by.
	Name string
	// Description is the one-line -list synopsis.
	Description string
	// File is the committed table the run regenerates.
	File string
	// Run executes the family with its defaults and renders the table.
	Run func() (string, error)
}

// Families enumerates the scenario presets in their canonical order.
func Families() []Family {
	return []Family{
		{
			Name:        "trace",
			Description: "trace-driven CSV replay: export, reimport and replay a workload bit-identically on core and cluster",
			File:        "benchmarks/scenario-trace.txt",
			Run: func() (string, error) {
				r, err := Trace(TraceConfig{})
				if err != nil {
					return "", err
				}
				return FormatTrace(r), nil
			},
		},
		{
			Name:        "diurnal",
			Description: "diurnal inhomogeneous-Poisson day/night cycles (thinning): load premium and fair shares under saturation",
			File:        "benchmarks/scenario-diurnal.txt",
			Run: func() (string, error) {
				r, err := Diurnal(DiurnalConfig{})
				if err != nil {
					return "", err
				}
				return FormatDiurnal(r), nil
			},
		},
		{
			Name:        "heavytail",
			Description: "heavy-tailed Pareto/lognormal service times at unchanged offered load: the price of elephants",
			File:        "benchmarks/scenario-heavytail.txt",
			Run: func() (string, error) {
				r, err := HeavyTail(HeavyTailConfig{})
				if err != nil {
					return "", err
				}
				return FormatHeavyTail(r), nil
			},
		},
		{
			Name:        "fedchaos",
			Description: "federation chaos: member flap, summary partition with relay degradation, slow member, leader kill under HA",
			File:        "benchmarks/scenario-fedchaos.txt",
			Run: func() (string, error) {
				r, err := FedChaos(FedChaosConfig{})
				if err != nil {
					return "", err
				}
				return FormatFedChaos(r), nil
			},
		},
	}
}

// FamilyByName resolves a preset (exact match).
func FamilyByName(name string) (Family, error) {
	for _, f := range Families() {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("scenario: unknown family %q", name)
}

// testbed returns replicas copies of the Table 2 second-set servers,
// suffixed per replica, plus a spec rewrite making every metatask spec
// solvable on each copy with the original costs (the experiments
// packages' standard scaled testbed).
func testbed(replicas int) ([]string, func(*task.Spec) *task.Spec) {
	base := []string{"artimon", "cabestan", "spinnaker", "valette"}
	var names []string
	for r := 0; r < replicas; r++ {
		for _, b := range base {
			names = append(names, fmt.Sprintf("%s%d", b, r))
		}
	}
	rewritten := make(map[*task.Spec]*task.Spec)
	rewrite := func(s *task.Spec) *task.Spec {
		if out, ok := rewritten[s]; ok {
			return out
		}
		on := make(map[string]task.Cost, len(names))
		for r := 0; r < replicas; r++ {
			for _, b := range base {
				if c, ok := s.CostOn[b]; ok {
					on[fmt.Sprintf("%s%d", b, r)] = c
				}
			}
		}
		out := &task.Spec{Problem: s.Problem, Variant: s.Variant, MemoryMB: s.MemoryMB, CostOn: on}
		rewritten[s] = out
		return out
	}
	return names, rewrite
}

// engine is the shape-independent driving surface every in-process
// deployment exposes: submit work, observe decisions, read the
// HTM-simulated completions.
type engine interface {
	Submit(agent.Request) (agent.Decision, error)
	SubmitBatch([]agent.Request) ([]agent.Decision, error)
	Subscribe(fn func(agent.Event)) (cancel func())
	FinalPredictions() map[int]float64
}

// engineConfig parameterizes newEngine across shapes.
type engineConfig struct {
	heuristic    string
	seed         uint64
	width        int // shards (cluster) or members (federation)
	tenantShares map[string]float64
}

// newEngine builds one in-process shape from one option set: the
// width and the policy are the only settings the core lacks.
func newEngine(shape Shape, cfg engineConfig, servers []string) (engine, error) {
	opts := []cluster.Option{
		cluster.WithHeuristic(cfg.heuristic),
		cluster.WithSeed(cfg.seed),
		cluster.WithTenantShares(cfg.tenantShares),
	}
	wide := []cluster.Option{cluster.WithShards(cfg.width), cluster.WithPolicy(cluster.LeastLoaded())}
	switch shape {
	case ShapeCore:
		coreCfg, err := cluster.CoreConfig(agent.Config{}, opts...)
		if err != nil {
			return nil, err
		}
		core, err := agent.New(coreCfg)
		if err != nil {
			return nil, err
		}
		for _, n := range servers {
			core.AddServer(n)
		}
		return core, nil
	case ShapeCluster:
		cl, err := cluster.New(append(opts, wide...)...)
		if err != nil {
			return nil, err
		}
		for _, n := range servers {
			cl.AddServer(n)
		}
		return cl, nil
	case ShapeFederation:
		d, err := cluster.NewFederation(append(opts, wide...)...)
		if err != nil {
			return nil, err
		}
		for _, n := range servers {
			if err := d.AddServer(n); err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	return nil, fmt.Errorf("scenario: shape %q has no in-process engine", shape)
}

// runStream drives every task of the metatask-derived request stream
// through per-task Submit.
func runStream(eng engine, reqs []agent.Request) error {
	for _, req := range reqs {
		if _, err := eng.Submit(req); err != nil {
			return fmt.Errorf("scenario: submit %d: %w", req.JobID, err)
		}
	}
	return nil
}

// requests converts a metatask into the per-task request stream.
func requests(mt *task.Metatask) []agent.Request {
	reqs := make([]agent.Request, mt.Len())
	for i, t := range mt.Tasks {
		reqs[i] = agent.Request{
			JobID: t.ID, TaskID: t.ID, Spec: t.Spec,
			Arrival: t.Arrival, Submitted: t.Arrival,
			Tenant: t.Tenant, Deadline: t.Deadline,
		}
	}
	return reqs
}

// sumFlowOf reads the HTM-simulated total flow of a driven engine
// from its final projections.
func sumFlowOf(eng engine, mt *task.Metatask) (sumFlow float64) {
	preds := eng.FinalPredictions()
	for _, t := range mt.Tasks {
		if c, ok := preds[t.ID]; ok {
			sumFlow += c - t.Arrival
		}
	}
	return sumFlow
}

// maxFlowOf reads the worst single task's HTM-simulated flow time —
// the tail-latency face of the same projections sumFlowOf totals.
func maxFlowOf(eng engine, mt *task.Metatask) (maxFlow float64) {
	preds := eng.FinalPredictions()
	for _, t := range mt.Tasks {
		if c, ok := preds[t.ID]; ok && c-t.Arrival > maxFlow {
			maxFlow = c - t.Arrival
		}
	}
	return maxFlow
}
