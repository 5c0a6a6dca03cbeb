package main

// metricDef names one metric the benchmark reports. The two lists below
// are the benchmark's contract: BENCHMARK.json repeats them, and a test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// Allocation metrics carry a fixed offset, because the issue bounds them
// at 0.05 of their value with an absolute floor (0.5 allocations, 64 B),
// while BENCHMARK.json knows relative bounds only and two workloads
// allocate nothing. With floor/bound added to the value, worsening by
// more than 0.05 of what is reported means worsening by more than 0.05
// of the real figure plus the floor.
const (
	allocsOffset = 0.5 / 0.05 // 10 allocations
	bytesOffset  = 64 / 0.05  // 1280 B
)

// endToEndMetrics are what a user of the system sees; they are gated.
// Each timing metric is the best of the window's five-second sub-windows
// (see endToEnd). The issue asked for 0.10 on rate, median and CPU; ten
// runs of the same code spread further than that on this box in any hour,
// and the benchmark contract refuses a bound its own spread exceeds, so
// every timing bound is 0.25, the widest it allows. bench/README.md has
// the measured spreads.
var endToEndMetrics = []metricDef{
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"decision_p50_us", "us", "lower", 0.25},
	{"decision_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_decision", "us", "lower", 0.25},
	{"allocs_per_decision_plus_10", "count", "lower", 0.05},
	{"bytes_per_decision_plus_1280", "B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics come from the traced run and are never gated. A
// metric of a layer the workload does not use reads 0.
var perLayerMetrics = []metricDef{
	{Name: "fluid.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "fluid.run_to_idle_ns", Unit: "ns", Better: "lower"},
	{Name: "fluid.project_ns", Unit: "ns", Better: "lower"},
	{Name: "fluid.events_per_projection", Unit: "count", Better: "lower"},
	{Name: "htm.evaluate_all_us", Unit: "us", Better: "lower"},
	{Name: "htm.predictions_per_decision", Unit: "count", Better: "lower"},
	{Name: "htm.place_us", Unit: "us", Better: "lower"},
	{Name: "htm.self_us", Unit: "us", Better: "lower"},
	{Name: "htm.live_jobs_per_server", Unit: "count", Better: "lower"},
	{Name: "htm.trace_jobs_total", Unit: "count", Better: "lower"},
	{Name: "sched.choose_us", Unit: "us", Better: "lower"},
	{Name: "sched.score_us", Unit: "us", Better: "lower"},
	{Name: "agent.submit_us", Unit: "us", Better: "lower"},
	{Name: "agent.self_us", Unit: "us", Better: "lower"},
	{Name: "agent.evaluate_us", Unit: "us", Better: "lower"},
	{Name: "agent.commit_us", Unit: "us", Better: "lower"},
	{Name: "agent.complete_us", Unit: "us", Better: "lower"},
	{Name: "fair.pick_ns", Unit: "ns", Better: "lower"},
	{Name: "fair.charge_ns", Unit: "ns", Better: "lower"},
	{Name: "fair.take_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.submit_us", Unit: "us", Better: "lower"},
	{Name: "cluster.self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.batch_us_per_task", Unit: "us", Better: "lower"},
	{Name: "cluster.shard_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "fed.submit_us", Unit: "us", Better: "lower"},
	{Name: "fed.fanout_wait_us", Unit: "us", Better: "lower"},
	{Name: "fed.fanout_skew_us", Unit: "us", Better: "lower"},
	{Name: "fed.commit_us", Unit: "us", Better: "lower"},
	{Name: "fed.self_us", Unit: "us", Better: "lower"},
	{Name: "fed.inproc_submit_us", Unit: "us", Better: "lower"},
	{Name: "live.evaluate_rtt_us", Unit: "us", Better: "lower"},
	{Name: "live.commit_rtt_us", Unit: "us", Better: "lower"},
	{Name: "live.summary_rtt_us", Unit: "us", Better: "lower"},
	{Name: "live.wire_overhead_us", Unit: "us", Better: "lower"},
	{Name: "live.rpcs_per_decision", Unit: "count", Better: "lower"},
	{Name: "client.rpc_hop_us", Unit: "us", Better: "lower"},
	{Name: "client.p999_us", Unit: "us", Better: "lower"},
	{Name: "client.max_us", Unit: "us", Better: "lower"},
	{Name: "client.open_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.open_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.open_late_max_us", Unit: "us", Better: "lower"},
	{Name: "proc.allocs_per_decision", Unit: "count", Better: "lower"},
	{Name: "proc.bytes_per_decision", Unit: "B", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "budget.agent_us", Unit: "us", Better: "lower"},
	{Name: "budget.sched_us", Unit: "us", Better: "lower"},
	{Name: "budget.htm_us", Unit: "us", Better: "lower"},
	{Name: "budget.cluster_us", Unit: "us", Better: "lower"},
	{Name: "budget.fed_us", Unit: "us", Better: "lower"},
	{Name: "budget.live_us", Unit: "us", Better: "lower"},
	{Name: "trace.budget_sum_us", Unit: "us", Better: "lower"},
	{Name: "trace.budget_vs_p50", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

func metricUnit(name string) string {
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
