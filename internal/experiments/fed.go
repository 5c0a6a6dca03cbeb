// This file is the federation staleness study: it quantifies what
// stale-summary (degraded power-of-two-choices) routing costs against
// the centralized dispatch decisions, on the paper's bursty
// inhomogeneous-Poisson workload — the number behind the federation's
// fresh-vs-stale routing trade.

package experiments

import (
	"fmt"
	"strings"
	"time"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/workload"
)

// FederationStudyConfig parameterizes the study. Zero values select
// the committed defaults (benchmarks/fed-study.txt).
type FederationStudyConfig struct {
	// N is the metatask size (default 240).
	N int
	// D is the long-run mean inter-arrival time in seconds (default 6,
	// near-critical for the replicated second-set testbed).
	D float64
	// Seed drives metatask generation and routing randomness.
	Seed uint64
	// Heuristic is the federation-wide objective (default HMCT).
	Heuristic string
	// Members is the federation width (default 4).
	Members int
	// Replicas scales the Table 2 second-set testbed (default 2 ⇒ 8
	// servers, 2 per member under least-loaded assignment).
	Replicas int
	// RefreshEvery lists the stale levels: the dispatcher's summaries
	// refresh only every that many submissions, so routing decisions
	// work from load data up to that many tasks old (default 1, 8, 32).
	RefreshEvery []int
}

func (c *FederationStudyConfig) defaults() {
	if c.N == 0 {
		c.N = 240
	}
	if c.D == 0 {
		c.D = 6
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Heuristic == "" {
		c.Heuristic = "HMCT"
	}
	if c.Members == 0 {
		c.Members = 4
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if len(c.RefreshEvery) == 0 {
		c.RefreshEvery = []int{1, 8, 32}
	}
}

// FederationStaleLevel is one stale-routing measurement.
type FederationStaleLevel struct {
	// RefreshEvery is the summary lag in submissions.
	RefreshEvery int
	// SumFlow is the HTM-simulated total flow under that lag.
	SumFlow float64
}

// FederationRelayLevel is one relay-assisted degraded-routing
// measurement: same summary lag as the matching stale level, but with
// the live event relay streaming member decisions between summaries.
type FederationRelayLevel struct {
	// RefreshEvery is the summary lag in submissions.
	RefreshEvery int
	// SumFlow is the HTM-simulated total flow under that lag with the
	// relay on.
	SumFlow float64
	// EventsPerDecision is the relay bandwidth: member events folded by
	// the dispatcher divided by decisions routed.
	EventsPerDecision float64
}

// FederationStudyResult holds the study: the centralized cluster, the
// fresh federation (expected decision-identical) and the degraded
// stale-summary levels, all measured by HTM-simulated sum-flow on one
// bursty metatask.
type FederationStudyResult struct {
	Config FederationStudyConfig

	// CentralSumFlow is the sharded cluster driven per task (exact
	// fan-out decisions) — the centralized reference.
	CentralSumFlow float64
	// FreshSumFlow is the federation with inline summary refresh:
	// fan-out routing, decisions identical to the cluster.
	FreshSumFlow float64
	// Stale are the degraded power-of-two-choices levels.
	Stale []FederationStaleLevel
	// Relay are the same summary lags rerouted through the live event
	// relay: near-fresh per-server pricing instead of frozen
	// power-of-two-choices.
	Relay []FederationRelayLevel
}

// FederationStudy runs the study: one bursty metatask, a centralized
// cluster, a fresh federation, and one degraded federation per stale
// level.
func FederationStudy(cfg FederationStudyConfig) (*FederationStudyResult, error) {
	cfg.defaults()
	sc := workload.PoissonBurst(cfg.N, cfg.D, cfg.Seed)
	mt, err := workload.Generate(sc)
	if err != nil {
		return nil, err
	}
	names, rewrite := replicatedSet2(cfg.Replicas)
	for _, t := range mt.Tasks {
		t.Spec = rewrite(t.Spec)
	}
	reqs := make([]agent.Request, mt.Len())
	for i, t := range mt.Tasks {
		reqs[i] = agent.Request{JobID: t.ID, TaskID: t.ID, Spec: t.Spec, Arrival: t.Arrival}
	}

	res := &FederationStudyResult{Config: cfg}

	// Every shape is built from one option set, so the cluster and the
	// federations differ only in their dispatch settings.
	shape := []cluster.Option{
		cluster.WithShards(cfg.Members),
		cluster.WithHeuristic(cfg.Heuristic),
		cluster.WithSeed(cfg.Seed),
		cluster.WithPolicy(cluster.LeastLoaded()),
	}

	// Centralized reference: the sharded cluster, exact fan-out per
	// task.
	cl, err := cluster.New(shape...)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		cl.AddServer(n)
	}
	for _, req := range reqs {
		if _, err := cl.Submit(req); err != nil {
			return nil, fmt.Errorf("experiments: central submit: %w", err)
		}
	}
	res.CentralSumFlow, _ = sumFlowOf(cl, mt)

	// Fresh federation: inline refresh, fan-out routing — decision
	// parity with the cluster.
	freshFed, err := cluster.NewFederation(shape...)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if err := freshFed.AddServer(n); err != nil {
			return nil, err
		}
	}
	for _, req := range reqs {
		if _, err := freshFed.Submit(req); err != nil {
			return nil, fmt.Errorf("experiments: fresh fed submit: %w", err)
		}
	}
	res.FreshSumFlow, _ = sumFlowOf(freshFed, mt)

	// degraded drives the stream through a federation whose fake clock
	// keeps every summary past StaleAfter (forcing degraded routing)
	// and whose summaries are refreshed only every `every` submissions —
	// routing always works from load data that lags reality by up to
	// that many decisions.
	degraded := func(label string, every int, extra ...cluster.Option) (*cluster.Dispatcher, error) {
		now := time.Unix(0, 0)
		opts := append(append([]cluster.Option{}, shape...),
			cluster.WithStaleAfter(time.Nanosecond),
			cluster.WithSummaryInterval(time.Hour), // inline refresh never fires
			cluster.WithNow(func() time.Time { return now }),
		)
		d, err := cluster.NewFederation(append(opts, extra...)...)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			if err := d.AddServer(n); err != nil {
				return nil, err
			}
		}
		for i, req := range reqs {
			if i%every == 0 {
				d.RefreshSummaries()
			}
			// Advance the fake clock so even a just-refreshed summary
			// ages past StaleAfter before the next routing decision.
			now = now.Add(time.Second)
			if _, err := d.Submit(req); err != nil {
				return nil, fmt.Errorf("experiments: %s fed submit (every=%d): %w", label, every, err)
			}
		}
		return d, nil
	}

	// Stale levels: power-of-two-choices over the lagging summaries.
	for _, every := range cfg.RefreshEvery {
		staleFed, err := degraded("stale", every)
		if err != nil {
			return nil, err
		}
		sum, _ := sumFlowOf(staleFed, mt)
		res.Stale = append(res.Stale, FederationStaleLevel{RefreshEvery: every, SumFlow: sum})
	}

	// Relay levels: identical staleness dial, but the dispatcher pulls
	// each member's decision ledger inline on every submission
	// (RelayInterval 0 — the TCP runtime's background tick collapsed to
	// its freshest setting) and prices degraded routing on the
	// near-fresh per-server drains instead of frozen summaries.
	for _, every := range cfg.RefreshEvery {
		relayFed, err := degraded("relay", every,
			cluster.WithRelay(true),
			cluster.WithRelayInterval(0), // pull inline on every submission
		)
		if err != nil {
			return nil, err
		}
		sum, _ := sumFlowOf(relayFed, mt)
		rs := relayFed.RelayStats()
		res.Relay = append(res.Relay, FederationRelayLevel{
			RefreshEvery:      every,
			SumFlow:           sum,
			EventsPerDecision: float64(rs.EventsFolded) / float64(len(reqs)),
		})
	}
	return res, nil
}

// FormatFederationStudy renders the study as a small report.
func FormatFederationStudy(r *FederationStudyResult) string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b, "federation staleness study — %s, poisson-burst set 2, N=%d D=%gs, %d members, %d servers, seed %d\n",
		c.Heuristic, c.N, c.D, c.Members, 4*c.Replicas, c.Seed)
	fmt.Fprintf(&b, "\n  %-34s %12s %8s %8s\n", "routing", "sumflow", "ratio", "ev/dec")
	fmt.Fprintf(&b, "  %-34s %12.0f %8.3f\n", "centralized cluster (fan-out)", r.CentralSumFlow, 1.0)
	if r.CentralSumFlow > 0 {
		fmt.Fprintf(&b, "  %-34s %12.0f %8.3f\n", "federated, fresh summaries",
			r.FreshSumFlow, r.FreshSumFlow/r.CentralSumFlow)
		for _, s := range r.Stale {
			fmt.Fprintf(&b, "  %-34s %12.0f %8.3f\n",
				fmt.Sprintf("federated, stale (refresh/%d)", s.RefreshEvery),
				s.SumFlow, s.SumFlow/r.CentralSumFlow)
		}
		for _, s := range r.Relay {
			fmt.Fprintf(&b, "  %-34s %12.0f %8.3f %8.2f\n",
				fmt.Sprintf("federated, relay (summary/%d)", s.RefreshEvery),
				s.SumFlow, s.SumFlow/r.CentralSumFlow, s.EventsPerDecision)
		}
	}
	return b.String()
}
