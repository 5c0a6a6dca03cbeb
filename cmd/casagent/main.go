// Command casagent runs a live client-agent-server agent on a TCP
// address: the central scheduler servers register with and clients
// query, mirroring NetSolve's deployment order (agent first, then
// servers, then clients).
//
// Usage:
//
//	casagent -addr 127.0.0.1:7410 -heuristic MSF -scale 100
//	casagent -heuristic HMCT -shards 4 -shard-policy least-loaded
//
// With -shards above 1 the agent runs the sharded cluster dispatch
// layer: registering servers are partitioned across that many agent
// cores by -shard-policy (hash, least-loaded or affinity), and each
// scheduling decision fans out over the shard winners.
//
// The agent runs until interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"casched"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7410", "TCP listen address")
		heuristic = flag.String("heuristic", "MSF", "scheduling heuristic")
		scale     = flag.Float64("scale", 1, "virtual seconds per wall second")
		seed      = flag.Uint64("seed", 1, "tie-breaking seed")
		htmSync   = flag.Bool("htm-sync", false, "enable HTM/execution synchronization")
		shards    = flag.Int("shards", 1, "agent-core shards behind the dispatch layer")
		policy    = flag.String("shard-policy", "hash", "server-to-shard policy: hash, least-loaded or affinity")
		joinAddr  = flag.String("join", "", "federation dispatcher address to join as a member (casfed); a comma-separated list joins every replica of a replicated deployment")
		name      = flag.String("name", "", "federation member name (default: the listen address)")
		shares    = flag.String("tenant-shares", "", `fair-share weights, e.g. "gold=4,silver=2" (empty = arbitration off)`)
		admission = flag.Bool("admission", false, "shed tasks whose deadline no server can meet")
		rate      = flag.Float64("intake-rate", 0, "intake token-bucket rate in tasks per virtual second (0 = unlimited)")
		burst     = flag.Float64("intake-burst", 0, "intake token-bucket burst capacity (0 = max(rate, 1))")
		relay     = flag.Bool("relay", true, "keep the federation event relay ledger (single-core agents); with -relay=false the member answers relay pulls Disabled")
		metrics   = flag.String("metrics-addr", "", "serve Prometheus GET /metrics on this address (empty = off)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof under /debug/pprof/ on this address (empty = off; the same value as -metrics-addr shares one server)")
		drainT    = flag.Duration("drain-timeout", 5*time.Second, "SIGTERM drain budget: wait for in-flight tasks, then leave the federation (with -join)")
	)
	flag.Parse()

	s, err := casched.NewScheduler(*heuristic)
	if err != nil {
		fmt.Fprintln(os.Stderr, "casagent:", err)
		os.Exit(1)
	}
	tenantShares, err := casched.ParseTenantShares(*shares)
	if err != nil {
		fmt.Fprintln(os.Stderr, "casagent:", err)
		os.Exit(1)
	}
	shardPolicy, ok := casched.ShardPolicyByName(*policy)
	if !ok {
		fmt.Fprintf(os.Stderr, "casagent: unknown shard policy %q\n", *policy)
		os.Exit(1)
	}
	agent, err := casched.StartLiveAgent(casched.LiveAgentConfig{
		Scheduler:    s,
		Clock:        casched.NewLiveClock(*scale),
		Seed:         *seed,
		HTMSync:      *htmSync,
		Shards:       *shards,
		ShardPolicy:  shardPolicy,
		Addr:         *addr,
		Join:         *joinAddr,
		Name:         *name,
		TenantShares: tenantShares,
		Admission:    *admission,
		IntakeRate:   *rate,
		IntakeBurst:  *burst,
		RelayOff:     !*relay,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "casagent:", err)
		os.Exit(1)
	}
	if *metrics != "" {
		sc := casched.NewStatsCollector()
		agent.Engine().Subscribe(sc.Collect)
		cfg := casched.MetricsConfig{Stats: sc.Snapshot, Eval: agent.Engine().EvalStats, Pprof: *pprofAddr == *metrics}
		msrv, err := casched.StartMetricsServer(*metrics, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "casagent:", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("casagent: metrics on http://%s/metrics\n", msrv.Addr())
		if cfg.Pprof {
			fmt.Printf("casagent: pprof on http://%s/debug/pprof/\n", msrv.Addr())
		}
	}
	if *pprofAddr != "" && *pprofAddr != *metrics {
		psrv, err := casched.StartMetricsServer(*pprofAddr, casched.MetricsConfig{Pprof: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "casagent:", err)
			os.Exit(1)
		}
		defer psrv.Close()
		fmt.Printf("casagent: pprof on http://%s/debug/pprof/\n", psrv.Addr())
	}
	switch {
	case *joinAddr != "":
		fmt.Printf("casagent: %s scheduler listening on %s, joined federation at %s\n",
			*heuristic, agent.Addr(), *joinAddr)
	case *shards > 1:
		fmt.Printf("casagent: %s scheduler listening on %s (clock scale %gx, %d shards, %s policy)\n",
			*heuristic, agent.Addr(), *scale, *shards, *policy)
	default:
		fmt.Printf("casagent: %s scheduler listening on %s (clock scale %gx)\n",
			*heuristic, agent.Addr(), *scale)
	}

	// Interrupt (^C) and SIGTERM (plain kill, container stop) both
	// shut the agent down cleanly; SIGTERM alone would otherwise kill
	// the process without running agent.Close(). A federation member
	// departs gracefully first: drain in-flight work (bounded), then
	// tell every joined dispatcher to reassign the partition.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if *joinAddr != "" {
		fmt.Printf("casagent: leaving federation (drain budget %s)\n", *drainT)
		agent.Leave(*drainT)
	}
	agent.Close()
	fmt.Println("casagent: stopped")
}
