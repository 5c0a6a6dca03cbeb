// Command casfed runs a federation dispatcher on a TCP address: the
// coordination point member agents join, and the address servers and
// clients use exactly as they would a plain agent — the wire protocol
// cannot tell a federation from a single casagent.
//
// Usage:
//
//	casfed -addr 127.0.0.1:7400 -heuristic HMCT
//	casagent -addr 127.0.0.1:7411 -heuristic HMCT -join 127.0.0.1:7400 -name m1
//	casagent -addr 127.0.0.1:7412 -heuristic HMCT -join 127.0.0.1:7400 -name m2
//	casserver -agent 127.0.0.1:7400 ...   # servers register with the federation
//	casclient -agent 127.0.0.1:7400 ...   # clients schedule through it
//
// Deployment order mirrors NetSolve's: dispatcher first, then members,
// then servers, then clients. Registering servers are partitioned
// across members by -policy; scheduling fans out over the members
// while their load summaries are fresh and degrades to
// power-of-two-choices routing over stale summaries when a member is
// slow or partitioned (members that keep failing are evicted and
// probed for readmission).
//
// A replicated deployment runs several casfed replicas under -ha-id
// (members, servers and clients then take the comma-separated list of
// every replica's address):
//
//	casfed -addr :7400 -ha-id d1 -ha-peers "d2=host2:7400,d3=host3:7400" -relay
//	casfed -addr :7400 -ha-id d2 -ha-peers "d1=host1:7400,d3=host3:7400" -relay -standby
//	casfed -addr :7400 -ha-id d3 -ha-peers "d1=host1:7400,d2=host2:7400" -relay -standby
//	casagent -join host1:7400,host2:7400,host3:7400 ...
//
// Only the elected leader serves clients; standbys mirror the members'
// decision ledgers (-relay) and answer with a redirect until promoted.
// SIGTERM drains in-flight placements and resigns the lease so a
// standby takes over immediately.
//
// With -study the command instead runs the federation staleness study
// (no sockets): centralized cluster vs fresh federation (decision
// parity) vs stale-summary routing at several refresh lags, measured
// by HTM-simulated sum-flow on the paper's bursty workload — the
// committed benchmarks/fed-study.txt.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"casched"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7400", "TCP listen address")
		heuristic = flag.String("heuristic", "HMCT", "federation-wide scheduling heuristic")
		policy    = flag.String("policy", "hash", "server-to-member policy: hash, least-loaded or affinity")
		scale     = flag.Float64("scale", 1, "virtual seconds per wall second")
		seed      = flag.Uint64("seed", 1, "routing randomness seed")
		stale     = flag.Duration("stale-after", 2*time.Second, "summary age that degrades routing")
		interval  = flag.Duration("summary-interval", 500*time.Millisecond, "gossip refresh period")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-member RPC budget")
		study     = flag.Bool("study", false, "run the stale-summary routing study and exit")
		rate      = flag.Float64("intake-rate", 0, "dispatch-level intake token-bucket rate in tasks per virtual second (0 = unlimited)")
		burst     = flag.Float64("intake-burst", 0, "intake token-bucket burst capacity (0 = max(rate, 1))")
		relay     = flag.Bool("relay", false, "stream member decision ledgers for near-fresh degraded routing")
		relayIntv = flag.Duration("relay-interval", 100*time.Millisecond, "relay pull period (with -relay)")
		relayMax  = flag.Int("relay-max-consec", 0, "max consecutive delegations to one member between relay advances (0 = default 8)")
		metrics   = flag.String("metrics-addr", "", "serve Prometheus GET /metrics on this address (empty = off)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof under /debug/pprof/ on this address (empty = off; the same value as -metrics-addr shares one server)")
		haID      = flag.String("ha-id", "", "unique replica ID; enrolls this dispatcher in leader election (empty = single-dispatcher)")
		haPeers   = flag.String("ha-peers", "", `peer replicas as "id=addr,id=addr" (with -ha-id)`)
		haLease   = flag.Duration("ha-lease", 2*time.Second, "leader lease duration (with -ha-id)")
		haBeat    = flag.Duration("ha-heartbeat", 0, "leader heartbeat period (0 = lease/4; with -ha-id)")
		standby   = flag.Bool("standby", false, "defer the first campaign so a designated primary wins election one (with -ha-id)")
		reassign  = flag.Duration("reassign-after", 0, "re-partition a dead member's servers after this eviction age (0 = never)")
		drainT    = flag.Duration("drain-timeout", 5*time.Second, "SIGTERM drain budget: wait for in-flight placements, then step down")
	)
	flag.Parse()

	if *study {
		r, err := casched.RunFederationStudy(casched.FederationStudyConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "casfed:", err)
			os.Exit(1)
		}
		fmt.Print(casched.FormatFederationStudy(r))
		return
	}

	shardPolicy, ok := casched.ShardPolicyByName(*policy)
	if !ok {
		fmt.Fprintf(os.Stderr, "casfed: unknown policy %q\n", *policy)
		os.Exit(1)
	}
	var opts []casched.FedServerOption
	if *haID != "" {
		peers, err := parsePeers(*haPeers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "casfed:", err)
			os.Exit(1)
		}
		opts = append(opts,
			casched.WithElection(*haID, peers),
			casched.WithElectionLease(*haLease),
		)
		if *haBeat > 0 {
			opts = append(opts, casched.WithElectionHeartbeat(*haBeat))
		}
		if *standby {
			opts = append(opts, casched.WithStandby())
		}
	} else if *standby || *haPeers != "" {
		fmt.Fprintln(os.Stderr, "casfed: -standby and -ha-peers need -ha-id")
		os.Exit(1)
	}
	srv, err := casched.StartFedServer(casched.FedServerConfig{
		Addr:                *addr,
		Heuristic:           *heuristic,
		Policy:              shardPolicy,
		Seed:                *seed,
		Clock:               casched.NewLiveClock(*scale),
		StaleAfter:          *stale,
		SummaryInterval:     *interval,
		Timeout:             *timeout,
		IntakeRate:          *rate,
		IntakeBurst:         *burst,
		Relay:               *relay,
		RelayInterval:       *relayIntv,
		RelayMaxConsecutive: *relayMax,
		ReassignAfter:       *reassign,
	}, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "casfed:", err)
		os.Exit(1)
	}
	if *haID != "" {
		fmt.Printf("casfed: %s federation dispatcher replica %q listening on %s (clock scale %gx, %s policy, stale-after %s, relay %v, lease %s, standby %v)\n",
			*heuristic, *haID, srv.Addr(), *scale, *policy, *stale, *relay, *haLease, *standby)
	} else {
		fmt.Printf("casfed: %s federation dispatcher listening on %s (clock scale %gx, %s policy, stale-after %s, relay %v)\n",
			*heuristic, srv.Addr(), *scale, *policy, *stale, *relay)
	}

	if *metrics != "" {
		sc := casched.NewStatsCollector()
		srv.Dispatcher().Subscribe(sc.Collect)
		mcfg := casched.MetricsConfig{
			Stats:   sc.Snapshot,
			Members: srv.Dispatcher().Members,
			Relay:   srv.Dispatcher().RelayStats,
		}
		if *haID != "" {
			mcfg.HA = srv.HAStatus
		}
		mcfg.Pprof = *pprofAddr == *metrics
		msrv, err := casched.StartMetricsServer(*metrics, mcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "casfed:", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("casfed: metrics on http://%s/metrics\n", msrv.Addr())
		if mcfg.Pprof {
			fmt.Printf("casfed: pprof on http://%s/debug/pprof/\n", msrv.Addr())
		}
	}
	if *pprofAddr != "" && *pprofAddr != *metrics {
		psrv, err := casched.StartMetricsServer(*pprofAddr, casched.MetricsConfig{Pprof: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "casfed:", err)
			os.Exit(1)
		}
		defer psrv.Close()
		fmt.Printf("casfed: pprof on http://%s/debug/pprof/\n", psrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful shutdown: stop serving clients, wait (bounded) for the
	// placements this dispatcher routed, push a final summary refresh so
	// standby ledger mirrors are current, and resign the lease so a
	// standby takes over immediately instead of waiting it out.
	fmt.Printf("casfed: draining (budget %s)\n", *drainT)
	srv.Drain(*drainT)
	srv.Close()
	fmt.Println("casfed: stopped")
}

// parsePeers parses the -ha-peers form "id=addr,id=addr".
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf(`bad -ha-peers entry %q, want "id=addr"`, part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate -ha-peers id %q", id)
		}
		peers[id] = addr
	}
	return peers, nil
}
