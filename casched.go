// Package casched is a Go reproduction of Caniou & Jeannot, "New
// Dynamic Heuristics in the Client-Agent-Server Model" (IEEE
// Heterogeneous Computing Workshop, 2003): dynamic scheduling of
// independent task streams onto time-shared servers through a central
// agent, driven by a Historical Trace Manager (HTM) that simulates
// every placement and predicts the perturbation each new task inflicts
// on the tasks already running.
//
// The package is a facade over the implementation packages:
//
//   - the HTM (historical trace manager) with per-server fluid
//     simulations of the shared-resource model;
//   - the heuristics MCT (NetSolve's monitor-driven baseline), HMCT,
//     MP, MSF, plus MNI, Random and RoundRobin;
//   - a discrete-event simulator of the client-agent-server
//     environment (monitors, load corrections, memory exhaustion,
//     fault tolerance);
//   - a live runtime in which agent, servers and clients are
//     goroutines communicating over TCP (net/rpc, gob) and tasks
//     execute in scaled wall-clock time;
//   - the paper's workloads (Tables 3 and 4), testbed (Table 2),
//     metrics (§3) and the full evaluation campaign (Tables 1, 5-8 and
//     Figure 1).
//
// # Quick start
//
//	mt := casched.GenerateSet2(500, 25, 42)            // 500 waste-cpu tasks, D=25s
//	servers, _ := casched.TestbedServers(casched.Set2Servers)
//	msf, _ := casched.NewScheduler("MSF")
//	res, _ := casched.Run(casched.RunConfig{
//		Servers:   servers,
//		Scheduler: msf,
//		Seed:      1,
//		NoiseSigma: 0.03,
//	}, mt)
//	fmt.Println(res.Report())
package casched

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/experiments"
	"casched/internal/fed"
	"casched/internal/fluid"
	"casched/internal/gantt"
	"casched/internal/grid"
	"casched/internal/ha"
	"casched/internal/htm"
	"casched/internal/live"
	"casched/internal/metrics"
	"casched/internal/platform"
	"casched/internal/scenario"
	"casched/internal/sched"
	"casched/internal/task"
	"casched/internal/telemetry"
	"casched/internal/trace"
	"casched/internal/workload"
)

// Core model types.
type (
	// Task is one client request.
	Task = task.Task
	// Spec describes a task type and its per-server costs.
	Spec = task.Spec
	// Cost holds the three phase costs of a task on one server.
	Cost = task.Cost
	// Metatask is a set of independent tasks submitted over time.
	Metatask = task.Metatask
	// Machine describes one testbed host (Table 2).
	Machine = platform.Machine
)

// Scheduling types.
type (
	// Scheduler chooses a server for each arriving task.
	Scheduler = sched.Scheduler
	// SchedContext is the information a heuristic sees per decision.
	SchedContext = sched.Context
	// HTM is the Historical Trace Manager.
	HTM = htm.Manager
	// Prediction is the HTM's answer for one candidate placement.
	Prediction = htm.Prediction
	// HTMEvalStats are the HTM's evaluation counters (candidates offered
	// and projected; AgentCore.EvalStats, Cluster.EvalStats).
	HTMEvalStats = htm.EvalStats
	// MemoryAware wraps a scheduler with the memory-admission
	// extension (paper §7 future work).
	MemoryAware = sched.MemoryAware
)

// Simulation types.
type (
	// RunConfig parameterizes one simulated experiment.
	RunConfig = grid.Config
	// RunResult is the outcome of one simulated run.
	RunResult = grid.Result
	// ServerConfig describes one simulated server.
	ServerConfig = grid.ServerConfig
	// Report aggregates the paper's §3 metrics.
	Report = metrics.Report
	// TaskResult is one task's outcome.
	TaskResult = metrics.TaskResult
	// TraceLog records execution events.
	TraceLog = trace.Log
	// TraceRecord is one event.
	TraceRecord = trace.Record
	// FluidSim is the processor-sharing simulation of one server.
	FluidSim = fluid.Sim
	// GanttChart is an extracted per-server schedule.
	GanttChart = gantt.Chart
)

// Agent-core types: the transport-agnostic decision engine shared by
// the simulator, the live runtime and library users.
type (
	// AgentCore is the streaming decision engine: add servers, submit
	// tasks (individually or in batches), feed completions and monitor
	// reports, observe the event stream.
	AgentCore = agent.Core
	// AgentCoreConfig parameterizes an AgentCore.
	AgentCoreConfig = agent.Config
	// AgentRequest is one task (re)submission.
	AgentRequest = agent.Request
	// AgentDecision is a committed placement.
	AgentDecision = agent.Decision
	// AgentCompletion is the core's record of a finished job.
	AgentCompletion = agent.Completion
	// AgentEvent is one observable core transition (see SubscribeCore
	// via AgentCore.Subscribe).
	AgentEvent = agent.Event
	// AgentEventKind discriminates agent events.
	AgentEventKind = agent.EventKind
)

// Agent event kinds.
const (
	// AgentEventDecision fires after each committed placement.
	AgentEventDecision = agent.EventDecision
	// AgentEventCompletion fires for each completion message.
	AgentEventCompletion = agent.EventCompletion
	// AgentEventReport fires for each monitor report.
	AgentEventReport = agent.EventReport
	// AgentEventServerAdded and AgentEventServerRemoved track
	// membership changes.
	AgentEventServerAdded   = agent.EventServerAdded
	AgentEventServerRemoved = agent.EventServerRemoved
	// AgentEventShed fires for each request refused at intake (the
	// token-bucket limiter or deadline admission) instead of placed.
	AgentEventShed = agent.EventShed
)

// Shed reasons (AgentEvent.Reason on AgentEventShed events).
const (
	// ShedThrottled marks a request refused by the intake rate limiter.
	ShedThrottled = agent.ShedThrottled
	// ShedDeadline marks a request refused by deadline admission: no
	// candidate's predicted completion met the task's deadline.
	ShedDeadline = agent.ShedDeadline
)

// ErrUnschedulable is returned by AgentCore.Submit when no registered
// server solves the task.
var ErrUnschedulable = agent.ErrUnschedulable

// ErrDeadlineUnmet is returned (wrapped) when deadline admission sheds
// a request: with WithAdmission on, no candidate server's predicted
// completion meets the request's deadline.
var ErrDeadlineUnmet = agent.ErrDeadlineUnmet

// ErrThrottled is returned (wrapped) when the intake token bucket
// (WithIntakeLimit) refuses a request.
var ErrThrottled = agent.ErrThrottled

// NewAgentCore constructs a long-lived streaming agent around the
// shared decision engine — the same core the simulator (Run) and the
// live TCP runtime drive. Add servers with AddServer, then Submit (or
// SubmitBatch) arriving tasks and feed Complete/Report messages back;
// Subscribe exposes the decision/completion/report event stream for
// observability.
//
// The configuration struct may be refined with the same functional
// options NewCluster and NewFederation take (WithHeuristic, WithSeed,
// WithHTMRetention, ...). Options that need a dispatch layer are
// rejected: WithShards above 1, WithShardPolicy and WithPlacedWindow,
// and the federation's WithStaleAfter, WithSummaryInterval and
// WithRelayInterval. WithIntakeLimit becomes the core's own bucket.
func NewAgentCore(cfg AgentCoreConfig, opts ...ClusterOption) (*AgentCore, error) {
	if len(opts) > 0 {
		resolved, err := cluster.CoreConfig(cfg, opts...)
		if err != nil {
			return nil, err
		}
		cfg = resolved
	}
	return agent.New(cfg)
}

// Cluster types: the sharded agent — N agent cores behind one dispatch
// layer with a merged event stream.
type (
	// Cluster partitions the server pool across shard cores: Submit
	// fans a decision out and commits on the winning shard;
	// SubmitBatch routes bursts to the least-loaded eligible shard so
	// decision cost scales with the shard, not the pool. With one
	// shard it reproduces NewAgentCore's exact placement sequence.
	Cluster = cluster.Cluster
	// ClusterOption is the functional construction idiom shared by
	// NewCluster, NewFederation and NewAgentCore; each rejects the
	// options it cannot use.
	ClusterOption = cluster.Option
	// ClusterConfig is the explicit form behind the options.
	ClusterConfig = cluster.Config
	// ShardPolicy assigns servers to shards.
	ShardPolicy = cluster.ShardPolicy
)

// NewCluster constructs a sharded agent from functional options:
//
//	cl, err := casched.NewCluster(
//		casched.WithShards(4),
//		casched.WithHeuristic("HMCT"),
//		casched.WithShardPolicy(casched.LeastLoadedShardPolicy()),
//	)
//
// Drive it exactly like an AgentCore: AddServer, Submit/SubmitBatch,
// Complete/Report, Subscribe.
func NewCluster(opts ...ClusterOption) (*Cluster, error) { return cluster.New(opts...) }

// WithShards sets the number of agent cores: a Cluster's shards or a
// Federation's members.
func WithShards(n int) ClusterOption { return cluster.WithShards(n) }

// WithShardPolicy sets the server-to-shard (or member) assignment
// policy.
func WithShardPolicy(p ShardPolicy) ClusterOption { return cluster.WithPolicy(p) }

// WithHeuristic selects the scheduling heuristic by name (MCT, HMCT,
// MP, MSF, ...), case-insensitive, one instance per shard.
func WithHeuristic(name string) ClusterOption { return cluster.WithHeuristic(name) }

// WithSeed seeds decision randomness (tie-breaking, Random) and a
// dispatcher's routing sample.
func WithSeed(seed uint64) ClusterOption { return cluster.WithSeed(seed) }

// WithHTMWorkers is ignored: each shard's HTM evaluates candidates one
// after the other under its lock. It remains so that existing callers
// compile.
func WithHTMWorkers(int) ClusterOption { return func(*cluster.Config) {} }

// WithHTMRetention bounds each shard's HTM trace history to the given
// number of experiment seconds; zero keeps the unbounded paper
// behavior. Long-lived deployments set this so completed-task records
// are pruned as the trace advances.
func WithHTMRetention(seconds float64) ClusterOption { return cluster.WithHTMRetention(seconds) }

// WithHTMSync enables HTM↔execution synchronization (§7 extension).
func WithHTMSync(on bool) ClusterOption { return cluster.WithHTMSync(on) }

// WithBatchAssignment opts SubmitBatch into true k-task scheduling:
// batches are placed wave by wave through a min-cost assignment over
// the shared prediction matrix (at most one new task per server per
// wave, re-projection between waves, contended tasks deferring when
// stacking a fast server beats occupying a slow one) instead of the
// default greedy task-by-task commitment. Requires a heuristic with a
// comparable objective (every registry heuristic except Random and
// RoundRobin); the defer estimate is denominated in seconds, so the
// stacking-vs-spreading trade engages for time-valued objectives
// (HMCT, MCT, MSF), while count-valued ones (MP, MNI) always spread —
// see sched.MinCostBatch. Applies to NewAgentCore and to every core of
// a NewCluster or NewFederation.
func WithBatchAssignment(on bool) ClusterOption { return cluster.WithBatchAssignment(on) }

// WithTenantShares turns on weighted fair-share arbitration of
// multi-tenant batches: the intake arbiter offers tasks to the
// heuristic in CFS-style fair-clock order across tenants, weighted by
// the share map. Keys are tenant paths ("gold", "gold/alice" for
// group scheduling — a client's work charges every level of its
// path), values are share weights; tenants absent from the map get
// weight 1. A non-nil empty map enables arbitration with equal
// shares. Single-tenant traffic is arbitration-free and reproduces
// the unarbitrated placement sequence bit for bit. Applies to
// NewAgentCore and to every core of a NewCluster or NewFederation.
func WithTenantShares(shares map[string]float64) ClusterOption {
	return cluster.WithTenantShares(shares)
}

// WithAdmission turns deadline-aware admission control on or off:
// requests whose Deadline no candidate server's predicted completion
// (HTM projection, or monitor estimate for monitor-only heuristics)
// can meet are shed with ErrDeadlineUnmet and an AgentEventShed
// instead of placed. Zero-deadline requests always pass.
func WithAdmission(on bool) ClusterOption { return cluster.WithAdmission(on) }

// WithRelay turns on the federation event relay ledger on each core:
// placements and completions are appended to a bounded
// sequence-numbered ledger (relay wire) a federation dispatcher can
// stream to keep near-fresh member views while degraded. Inert unless
// a dispatcher pulls it; a NewFederation's does, every RelayInterval.
func WithRelay(on bool) ClusterOption { return cluster.WithRelay(on) }

// WithIntakeLimit bounds raw intake with a token bucket of rate tasks
// per experiment second and burst capacity burst (burst <= 0 defaults
// to max(rate, 1)); refused requests are shed with ErrThrottled. On
// NewAgentCore the bucket lives in the core; on NewCluster and
// NewFederation it sits in front of the dispatch layer — exactly one
// limiter per deployment either way.
func WithIntakeLimit(rate, burst float64) ClusterOption {
	return cluster.WithIntakeLimit(rate, burst)
}

// ParseTenantShares parses a command-line share map of the form
// "gold=4,silver=2,bronze=1" (tenant paths mapped to positive
// weights) into the map WithTenantShares accepts. An empty string
// yields a nil map (fair-share arbitration off).
func ParseTenantShares(s string) (map[string]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	shares := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("casched: tenant share %q: want tenant=weight", part)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("casched: tenant share %q: empty tenant name", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("casched: tenant share %q: weight must be a positive number", part)
		}
		shares[name] = w
	}
	return shares, nil
}

// WithPlacedWindow bounds the dispatcher's job→shard (or job→member)
// placement records to a trailing experiment-time window (seconds):
// long deployments whose completion messages occasionally go missing
// hold dispatch memory proportional to the window, not the run.
// Completions for swept jobs fall back to the server's current shard.
// NewAgentCore rejects it.
func WithPlacedWindow(seconds float64) ClusterOption {
	return cluster.WithPlacedWindow(seconds)
}

// WithStaleAfter sets the summary age beyond which a federation
// member no longer counts as fresh (default 2s); any member gone stale
// degrades Submit routing from exact fan-out to power-of-two-choices.
// Federation only: NewCluster and NewAgentCore reject it.
func WithStaleAfter(d time.Duration) ClusterOption { return cluster.WithStaleAfter(d) }

// WithSummaryInterval sets a federation's inline summary refresh
// period (0 = refresh on every submission). Federation only.
func WithSummaryInterval(d time.Duration) ClusterOption { return cluster.WithSummaryInterval(d) }

// WithRelayInterval paces a federation's relay pulls (0 = pull inline
// on every submission). Federation only.
func WithRelayInterval(d time.Duration) ClusterOption { return cluster.WithRelayInterval(d) }

// HashShardPolicy spreads servers by name hash (the default policy).
func HashShardPolicy() ShardPolicy { return cluster.Hash() }

// LeastLoadedShardPolicy keeps partition sizes level and rebalances
// automatically after removals.
func LeastLoadedShardPolicy() ShardPolicy { return cluster.LeastLoaded() }

// AffinityShardPolicy keeps servers of one class on one shard; a nil
// classifier groups by server-name prefix ("bigsun12" → "bigsun").
func AffinityShardPolicy(classify func(server string) string) ShardPolicy {
	return cluster.Affinity(classify)
}

// ShardPolicyByName resolves "hash", "least-loaded" or "affinity" —
// the casagent -shard-policy values.
func ShardPolicyByName(name string) (ShardPolicy, bool) { return cluster.ByName(name) }

// Federation types: N cooperating agents, each owning a server
// partition, behind one dispatcher exchanging compact load summaries —
// the cluster dispatch layer with the shards behind a transport seam
// (in-process members here; remote casagent members via cmd/casfed).
type (
	// Federation is the federated dispatcher. Drive it like a Cluster:
	// AddServer, Submit/SubmitBatch, Complete/Report, Subscribe.
	Federation = fed.Dispatcher
	// FederationConfig configures a dispatcher over caller-supplied
	// members (NewFederationWithMembers).
	FederationConfig = fed.Config
	// FedMember is the dispatcher's transport-agnostic member handle.
	FedMember = fed.Member
	// FedSummary is the compact load summary members publish.
	FedSummary = fed.Summary
	// FedMemberInfo is a diagnostic snapshot of one member's routing
	// state.
	FedMemberInfo = fed.MemberInfo
	// FedRelayStats counts the dispatcher's relay activity
	// (Dispatcher.RelayStats).
	FedRelayStats = fed.RelayStats
	// FedServer is the federation dispatcher TCP runtime (cmd/casfed).
	FedServer = fed.Server
	// FedServerConfig parameterizes a FedServer.
	FedServerConfig = fed.ServerConfig
	// FedHAConfig parameterizes a replicated dispatcher's election
	// membership (FedServerConfig.HA).
	FedHAConfig = fed.HAConfig
	// HAStatus is a replicated dispatcher's election posture
	// (FedServer.HAStatus): term, leadership, standby replication lag
	// and the self-healing reassignment counter.
	HAStatus = ha.Status
)

// NewFederation constructs a federated dispatcher over in-process
// member agents, from the options NewCluster takes:
//
//	f, err := casched.NewFederation(
//		casched.WithShards(4),
//		casched.WithHeuristic("HMCT"),
//	)
//
// With fresh summaries (the in-process default) its placement
// sequences are identical to NewCluster's from the same options; under
// stale summaries (WithStaleAfter, WithSummaryInterval) it degrades to
// power-of-two-choices routing, or to relay pricing with WithRelay.
// See internal/fed for the full model.
func NewFederation(opts ...ClusterOption) (*Federation, error) {
	return cluster.NewFederation(opts...)
}

// WithFedMembers is WithShards.
//
// Deprecated: use WithShards.
func WithFedMembers(n int) ClusterOption { return WithShards(n) }

// WithFedHeuristic is WithHeuristic.
//
// Deprecated: use WithHeuristic.
func WithFedHeuristic(name string) ClusterOption { return WithHeuristic(name) }

// WithFedSeed is WithSeed.
//
// Deprecated: use WithSeed.
func WithFedSeed(seed uint64) ClusterOption { return WithSeed(seed) }

// NewFederationWithMembers constructs a dispatcher over caller-supplied
// member handles (custom transports).
func NewFederationWithMembers(cfg FederationConfig, members []FedMember) (*Federation, error) {
	return fed.NewWithMembers(cfg, members)
}

// FedChaosOp names one member-transport operation for fault
// injection.
type FedChaosOp = fed.Op

// The injectable member-transport operations.
const (
	FedOpAddServer    = fed.OpAddServer
	FedOpRemoveServer = fed.OpRemoveServer
	FedOpCanSolve     = fed.OpCanSolve
	FedOpEvaluate     = fed.OpEvaluate
	FedOpCommit       = fed.OpCommit
	FedOpSubmit       = fed.OpSubmit
	FedOpSubmitBatch  = fed.OpSubmitBatch
	FedOpComplete     = fed.OpComplete
	FedOpReport       = fed.OpReport
	FedOpSummary      = fed.OpSummary
	FedOpRelay        = fed.OpRelay
)

// FedInjector decides, per member and operation, whether a
// chaos-wrapped member call goes through (nil) or fails with the
// returned error.
type FedInjector = fed.Injector

// FedScriptInjector is the scriptable FedInjector the scenario
// harness's federation-chaos family drives: Kill/Revive a member,
// Sever/Heal individual operations, SetLatency against a per-call
// budget.
type FedScriptInjector = fed.ScriptInjector

// NewFedScriptInjector constructs a scriptable injector. budget is
// the per-call latency at or past which an injected delay fails like
// a dial timeout instead of sleeping.
func NewFedScriptInjector(budget time.Duration) *FedScriptInjector {
	return fed.NewScriptInjector(budget)
}

// ChaosFedMember wraps a member handle so every transport call
// consults the injector first — the seam the federation-chaos
// scenarios are built on. Pair with NewFederationWithMembers;
// production members are untouched, wrap only what you mean to break.
func ChaosFedMember(m FedMember, inj FedInjector) FedMember { return fed.Chaos(m, inj) }

// FedServerOption adjusts a FedServerConfig before launch — the
// high-availability knobs ride here so single-dispatcher callers keep
// the plain-config call unchanged.
type FedServerOption func(*FedServerConfig)

// WithElection enrolls the dispatcher in a replicated deployment's
// leader election under the given unique replica ID, with peers
// mapping each other replica's ID to its RPC address (may be empty at
// launch and installed later with FedServer.SetHAPeers).
func WithElection(id string, peers map[string]string) FedServerOption {
	return func(cfg *FedServerConfig) {
		if cfg.HA == nil {
			cfg.HA = &FedHAConfig{}
		}
		cfg.HA.ID = id
		cfg.HA.Peers = peers
	}
}

// WithStandby defers this replica's first campaign so a designated
// primary wins election one deterministically. Requires WithElection.
func WithStandby() FedServerOption {
	return func(cfg *FedServerConfig) {
		if cfg.HA == nil {
			cfg.HA = &FedHAConfig{}
		}
		cfg.HA.Standby = true
	}
}

// WithElectionLease sets the leader lease duration (default 2s); a
// leader whose heartbeats stop is deposed one lease later.
func WithElectionLease(d time.Duration) FedServerOption {
	return func(cfg *FedServerConfig) {
		if cfg.HA == nil {
			cfg.HA = &FedHAConfig{}
		}
		cfg.HA.Lease = d
	}
}

// WithElectionHeartbeat sets the leader heartbeat period (default
// lease/4).
func WithElectionHeartbeat(d time.Duration) FedServerOption {
	return func(cfg *FedServerConfig) {
		if cfg.HA == nil {
			cfg.HA = &FedHAConfig{}
		}
		cfg.HA.Heartbeat = d
	}
}

// StartFedServer launches the federation dispatcher TCP runtime:
// member agents join with casagent -join, servers and clients connect
// exactly as they would to a plain agent. Options layer the
// high-availability surface on top — a replicated deployment runs one
// StartFedServer per replica:
//
//	srv, err := casched.StartFedServer(cfg,
//		casched.WithElection("d1", peers),
//		casched.WithStandby(),
//	)
func StartFedServer(cfg FedServerConfig, opts ...FedServerOption) (*FedServer, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	return fed.StartServer(cfg)
}

// StatsCollector is the sample event-stream subscriber aggregating
// decisions/sec, completions, mean absolute prediction error and
// per-server occupancy. Subscribe its Collect method on an AgentCore
// or a Cluster.
type StatsCollector = agent.StatsCollector

// AgentStats is a StatsCollector snapshot.
type AgentStats = agent.Stats

// ServerOccupancy is the per-server view inside AgentStats.
type ServerOccupancy = agent.Occupancy

// TenantStats is the per-tenant view inside AgentStats: decisions,
// completions, sheds (split by cause), sum-flow and deadline misses.
type TenantStats = agent.TenantStats

// NewStatsCollector returns an empty collector; pass sc.Collect to
// Subscribe and read aggregates with sc.Snapshot().
func NewStatsCollector() *StatsCollector { return agent.NewStatsCollector() }

// MetricsConfig names the sources a /metrics endpoint renders: a stats
// snapshot function (StatsCollector.Snapshot), and for federation
// dispatchers the member diagnostics (Federation.Members) and relay
// counters (Federation.RelayStats). Nil fields are skipped.
type MetricsConfig = telemetry.Config

// MetricsServer is the stdlib HTTP runtime behind -metrics-addr.
type MetricsServer = telemetry.Server

// StartMetricsServer serves GET /metrics in the Prometheus text
// exposition format on addr ("" = ephemeral loopback) until Close.
func StartMetricsServer(addr string, cfg MetricsConfig) (*MetricsServer, error) {
	return telemetry.Start(addr, cfg)
}

// Live runtime types.
type (
	// LiveAgent is a TCP agent.
	LiveAgent = live.Agent
	// LiveAgentConfig parameterizes a live agent.
	LiveAgentConfig = live.AgentConfig
	// LiveServer is a TCP computational server.
	LiveServer = live.Server
	// LiveServerConfig parameterizes a live server.
	LiveServerConfig = live.ServerConfig
	// LiveClock maps wall time to scaled experiment time.
	LiveClock = live.Clock
)

// Campaign types.
type (
	// Campaign holds the evaluation parameters (Tables 5-8).
	Campaign = experiments.Campaign
	// SetResult is one experiment set at one rate.
	SetResult = experiments.SetResult
	// HeuristicResult is one heuristic's aggregate outcome.
	HeuristicResult = experiments.HeuristicResult
	// ValidationResult is the reproduced Table 1.
	ValidationResult = experiments.ValidationResult
	// ValidationConfig tunes the Table 1 reproduction.
	ValidationConfig = experiments.ValidationConfig
	// SweepResult is a rate sweep across arrival rates.
	SweepResult = experiments.SweepResult
	// ServerFailure is an injected server crash.
	ServerFailure = grid.ServerFailure
	// ServerStats is the per-server load-balance view of a run.
	ServerStats = grid.ServerStats
	// Distribution is the flow/stretch tail profile of a run.
	Distribution = metrics.Distribution
	// Scenario describes a metatask to generate.
	Scenario = workload.Scenario
	// ArrivalProcess selects the arrival traffic shape.
	ArrivalProcess = workload.ArrivalProcess
)

// Arrival processes.
const (
	// ArrivalPoisson is the paper's exponential-gap process.
	ArrivalPoisson = workload.ArrivalPoisson
	// ArrivalUniform draws gaps uniformly in [0.5D, 1.5D].
	ArrivalUniform = workload.ArrivalUniform
	// ArrivalBursty releases tasks in bursts at the same mean rate.
	ArrivalBursty = workload.ArrivalBursty
	// ArrivalConstant spaces gaps exactly D apart.
	ArrivalConstant = workload.ArrivalConstant
	// ArrivalPoissonBurst is the inhomogeneous Poisson process: bursts
	// of high arrival rate at an unchanged long-run mean.
	ArrivalPoissonBurst = workload.ArrivalPoissonBurst
)

// Testbed server sets (Table 2).
var (
	// Set1Servers are the first-set servers (matrix multiplications).
	Set1Servers = platform.Set1Servers
	// Set2Servers are the second-set servers (waste-cpu tasks).
	Set2Servers = platform.Set2Servers
)

// NewScheduler constructs a heuristic by name: MCT, HMCT, MP, MSF,
// MNI, Random or RoundRobin.
func NewScheduler(name string) (Scheduler, error) { return sched.ByName(name) }

// Schedulers returns a fresh instance of every heuristic.
func Schedulers() []Scheduler { return sched.All() }

// NewMPRandomTie returns the MP heuristic with random tie-breaking
// instead of the paper's minimum-completion rule (ablation).
func NewMPRandomTie() Scheduler { return &sched.MP{Tie: sched.TieRandom} }

// NewHTM constructs a Historical Trace Manager tracking the named
// servers.
func NewHTM(servers []string, opts ...htm.Option) *HTM { return htm.New(servers, opts...) }

// HTMWithSync enables the HTM↔execution synchronization extension.
func HTMWithSync() htm.Option { return htm.WithSync() }

// HTMWithMemoryModel makes the HTM model server memory.
func HTMWithMemoryModel() htm.Option { return htm.WithMemoryModel() }

// HTMWithRetention bounds the HTM's completed-record history to a
// sliding window (seconds of trace time): months-long deployments keep
// bounded memory, predictions are unchanged, Table 1-style
// retrospection forgets pruned jobs.
func HTMWithRetention(window float64) htm.Option { return htm.WithRetention(window) }

// Run executes a metatask on the discrete-event simulator.
func Run(cfg RunConfig, mt *Metatask) (*RunResult, error) { return grid.Run(cfg, mt) }

// TestbedServers resolves testbed machine names (Table 2) into
// simulator server configurations with their memory capacities.
func TestbedServers(names []string) ([]ServerConfig, error) { return grid.ServersFor(names) }

// GenerateSet1 builds a first-set metatask: n matrix multiplications
// with mean inter-arrival d seconds.
func GenerateSet1(n int, d float64, seed uint64) *Metatask {
	return workload.MustGenerate(workload.Set1(n, d, seed))
}

// GenerateSet2 builds a second-set metatask: n waste-cpu tasks with
// mean inter-arrival d seconds.
func GenerateSet2(n int, d float64, seed uint64) *Metatask {
	return workload.MustGenerate(workload.Set2(n, d, seed))
}

// MatmulSpec returns the Table 3 spec for a matrix size (1200, 1500 or
// 1800).
func MatmulSpec(size int) *Spec { return task.Matmul(size) }

// WasteCPUSpec returns the Table 4 spec for a parameter (200, 400 or
// 600).
func WasteCPUSpec(param int) *Spec { return task.WasteCPU(param) }

// SyntheticSpec returns a registry-resolvable synthetic benchmark spec
// — family 0..2 (base compute 40/80/160s) over a pool of n servers
// named "sv00".."sv<n-1>" — whose cost map is derived from (family, n)
// alone, so it reconstructs identically on the far side of the live
// wire at any pool size. Large-testbed benchmarks use it to drive real
// TCP federations beyond the paper's four named servers.
func SyntheticSpec(family, n int) *Spec { return task.Synthetic(family, n) }

// FinishSooner counts the tasks of run a that complete strictly before
// their counterparts in run b (the paper's per-user quality-of-service
// indicator).
func FinishSooner(a, b []TaskResult) (int, error) { return metrics.FinishSooner(a, b) }

// ComputeReport aggregates task results into the §3 metrics.
func ComputeReport(heuristic string, results []TaskResult) Report {
	return metrics.Compute(heuristic, results)
}

// DefaultCampaign returns the paper-equivalent evaluation parameters.
func DefaultCampaign() Campaign { return experiments.Default() }

// Validate reproduces Table 1 (HTM validation on the live runtime).
func Validate(cfg ValidationConfig) (*ValidationResult, error) {
	return experiments.Validate(cfg)
}

// Figure1 renders the paper's Figure 1 Gantt charts.
func Figure1(width int) (string, error) { return experiments.Figure1(width) }

// FormatSet renders a SetResult in the layout of Tables 5-8.
func FormatSet(r *SetResult) string { return experiments.FormatSet(r) }

// FormatValidation renders a Table 1 reproduction.
func FormatValidation(v *ValidationResult) string { return experiments.FormatValidation(v) }

// FormatTable2 renders the testbed description (Table 2).
func FormatTable2() string { return experiments.FormatTable2() }

// FormatTable3 renders the multiplication tasks' needs (Table 3).
func FormatTable3() string { return experiments.FormatTable3() }

// FormatTable4 renders the waste-cpu tasks' needs (Table 4).
func FormatTable4() string { return experiments.FormatTable4() }

// FormatSweep renders one metric of a rate sweep as a table.
func FormatSweep(r *SweepResult, metric string) string { return experiments.FormatSweep(r, metric) }

// FormatBaselines renders an extended baselines comparison.
func FormatBaselines(reports []Report, sooner map[string]int) string {
	return experiments.FormatBaselines(reports, sooner)
}

// BatchComparisonConfig parameterizes the batch-scheduling study:
// greedy vs matched k-task batches and exact fan-out vs hierarchical
// routing, measured by HTM-simulated sum-flow on the paper's
// second-set workload under bursty arrivals.
type BatchComparisonConfig = experiments.BatchComparisonConfig

// BatchComparisonResult is the outcome of the batch-scheduling study.
type BatchComparisonResult = experiments.BatchComparisonResult

// RunBatchComparison runs the batch-scheduling study (zero-value
// config selects the committed benchmarks/batch-comparison.txt
// parameters).
func RunBatchComparison(cfg BatchComparisonConfig) (*BatchComparisonResult, error) {
	return experiments.BatchComparison(cfg)
}

// FormatBatchComparison renders the study as a small report.
func FormatBatchComparison(r *BatchComparisonResult) string {
	return experiments.FormatBatchComparison(r)
}

// FederationStudyConfig parameterizes the federation staleness study:
// centralized cluster vs fresh federation (decision parity) vs
// stale-summary power-of-two-choices routing at several refresh lags,
// measured by HTM-simulated sum-flow on the paper's bursty workload.
type FederationStudyConfig = experiments.FederationStudyConfig

// FederationStudyResult is the outcome of the federation study.
type FederationStudyResult = experiments.FederationStudyResult

// RunFederationStudy runs the federation staleness study (zero-value
// config selects the committed benchmarks/fed-study.txt parameters).
func RunFederationStudy(cfg FederationStudyConfig) (*FederationStudyResult, error) {
	return experiments.FederationStudy(cfg)
}

// FormatFederationStudy renders the study as a small report.
func FormatFederationStudy(r *FederationStudyResult) string {
	return experiments.FormatFederationStudy(r)
}

// TenantStudyConfig parameterizes the multi-tenant intake study:
// weighted fair-share convergence under a saturating multi-tenant
// batch, and deadline-miss rates with admission off vs on under a
// bursty deadline-stamped workload.
type TenantStudyConfig = experiments.TenantStudyConfig

// TenantStudyResult is the outcome of the multi-tenant intake study.
type TenantStudyResult = experiments.TenantStudyResult

// RunTenantStudy runs the multi-tenant intake study (zero-value config
// selects the committed benchmarks/tenant-study.txt parameters).
func RunTenantStudy(cfg TenantStudyConfig) (*TenantStudyResult, error) {
	return experiments.TenantStudy(cfg)
}

// FormatTenantStudy renders the study as a small report.
func FormatTenantStudy(r *TenantStudyResult) string {
	return experiments.FormatTenantStudy(r)
}

// ScenarioFamily is one named preset of the production scenario
// harness: a self-contained study composing a workload dimension
// (trace replay, diurnal arrivals, heavy-tailed service times) with a
// chaos dimension (member flap, summary partition, slow member,
// leader kill) against the library's deployment shapes, rendered as a
// committed benchmarks/scenario-*.txt table. cmd/casscenario runs
// them by name.
type ScenarioFamily = scenario.Family

// ScenarioFamilies enumerates the harness presets in canonical order.
func ScenarioFamilies() []ScenarioFamily { return scenario.Families() }

// ScenarioFamilyByName resolves a harness preset by name.
func ScenarioFamilyByName(name string) (ScenarioFamily, error) {
	return scenario.FamilyByName(name)
}

// AccuracyResult quantifies HTM prediction quality over a full run.
type AccuracyResult = experiments.AccuracyResult

// FormatAccuracy renders an AccuracyResult.
func FormatAccuracy(a *AccuracyResult) string { return experiments.FormatAccuracy(a) }

// FormatServerStats renders the per-server load-balance view of a run.
func FormatServerStats(heuristic string, stats map[string]ServerStats) string {
	return experiments.FormatServerStats(heuristic, stats)
}

// ComputeDistribution derives the flow/stretch tail profile of a run.
func ComputeDistribution(heuristic string, results []TaskResult) Distribution {
	return metrics.ComputeDistribution(heuristic, results)
}

// SoonerMatrix computes pairwise finish-sooner counts between runs of
// the same metatask.
func SoonerMatrix(runs map[string][]TaskResult) (names []string, matrix [][]int, err error) {
	return metrics.SoonerMatrix(runs)
}

// FormatSoonerMatrix renders a SoonerMatrix.
func FormatSoonerMatrix(names []string, matrix [][]int) string {
	return metrics.FormatSoonerMatrix(names, matrix)
}

// GenerateScenario builds a metatask from a full workload scenario
// (custom arrival process, burst size, first arrival, ...).
func GenerateScenario(sc Scenario) (*Metatask, error) { return workload.Generate(sc) }

// Set1Scenario returns the first-set scenario (editable before
// GenerateScenario).
func Set1Scenario(n int, d float64, seed uint64) Scenario { return workload.Set1(n, d, seed) }

// Set2Scenario returns the second-set scenario.
func Set2Scenario(n int, d float64, seed uint64) Scenario { return workload.Set2(n, d, seed) }

// PoissonBurstScenario returns a second-set scenario under the
// inhomogeneous-Poisson (bursty) arrival process.
func PoissonBurstScenario(n int, d float64, seed uint64) Scenario {
	return workload.PoissonBurst(n, d, seed)
}

// WriteMetataskCSV archives a metatask as CSV for exact replay.
func WriteMetataskCSV(w io.Writer, mt *Metatask) error { return workload.WriteCSV(w, mt) }

// ReadMetataskCSV loads a metatask archived with WriteMetataskCSV.
func ReadMetataskCSV(r io.Reader, name string) (*Metatask, error) {
	return workload.ReadCSV(r, name)
}

// ExtractGantt projects a server simulation to idle and returns its
// Gantt chart.
func ExtractGantt(sim *FluidSim) *GanttChart { return gantt.Extract(sim) }

// NewLiveClock starts a scaled experiment clock (scale = virtual
// seconds per wall second).
func NewLiveClock(scale float64) *LiveClock { return live.NewClock(scale) }

// StartLiveAgent launches a TCP agent.
func StartLiveAgent(cfg LiveAgentConfig) (*LiveAgent, error) { return live.StartAgent(cfg) }

// StartLiveServer launches a TCP computational server and registers it
// with its agent.
func StartLiveServer(cfg LiveServerConfig) (*LiveServer, error) { return live.StartServer(cfg) }

// RunLiveMetatask plays a metatask against a live deployment,
// submitting each task at its arrival date through blocking RPC calls.
func RunLiveMetatask(agentAddr string, mt *Metatask, clock *LiveClock) ([]TaskResult, error) {
	return live.RunMetatask(agentAddr, mt, clock)
}

// DefaultQuantum is the live executor's default tick.
const DefaultQuantum = 2 * time.Millisecond
