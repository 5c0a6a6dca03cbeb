// Package telemetry exposes the scheduler's runtime gauges over HTTP
// in the Prometheus text exposition format, using only the standard
// library. The package renders immutable snapshots — an
// agent.StatsCollector's Snapshot, a federation dispatcher's Members
// and RelayStats — so scraping never contends with the decision path
// beyond the snapshot locks those surfaces already take.
//
// Deployments opt in with -metrics-addr on casagent and casfed; the
// endpoint is GET /metrics. With Config.Pprof (the binaries'
// -pprof-addr flag) the same server also mounts net/http/pprof under
// /debug/pprof/.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"casched/internal/agent"
	"casched/internal/fed"
	"casched/internal/ha"
	"casched/internal/htm"
)

// Config names the metric sources. Nil fields are skipped, so an agent
// exports only core stats while a federation dispatcher adds member
// and relay gauges.
type Config struct {
	// Stats returns the scheduling stats snapshot (typically
	// StatsCollector.Snapshot of a collector subscribed to the engine).
	Stats func() agent.Stats
	// Eval returns the HTM evaluation counters of the engine making the
	// decisions (agent.Core.EvalStats, cluster.Cluster.EvalStats).
	Eval func() htm.EvalStats
	// Members returns the federation member diagnostics
	// (Dispatcher.Members).
	Members func() []fed.MemberInfo
	// Relay returns the dispatcher's relay counters
	// (Dispatcher.RelayStats).
	Relay func() fed.RelayStats
	// HA returns a replicated dispatcher's election posture
	// (fed.Server.HAStatus).
	HA func() ha.Status
	// Pprof additionally mounts the net/http/pprof handlers under
	// /debug/pprof/ on the same server, so one operations port serves
	// both the scrape target and live CPU/heap profiles (casagent and
	// casfed wire this to -pprof-addr).
	Pprof bool
}

// Handler renders the configured sources as a Prometheus text page.
func Handler(cfg Config) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if cfg.Stats != nil {
			WriteStats(&b, cfg.Stats())
		}
		if cfg.Eval != nil {
			WriteEval(&b, cfg.Eval())
		}
		if cfg.Members != nil {
			WriteMembers(&b, cfg.Members())
		}
		if cfg.Relay != nil {
			WriteRelay(&b, cfg.Relay())
		}
		if cfg.HA != nil {
			WriteHA(&b, cfg.HA())
		}
		io.WriteString(w, b.String())
	})
}

// Server is a minimal HTTP runtime serving /metrics.
type Server struct {
	lis net.Listener
	srv *http.Server
}

// Start listens on addr ("" = ephemeral loopback) and serves /metrics
// from the configured sources until Close.
func Start(addr string, cfg Config) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(cfg))
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s := &Server{lis: lis, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(lis)
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// metric emits one sample, preceded by HELP/TYPE headers the first
// time the family appears on the page.
type page struct {
	w    io.Writer
	seen map[string]bool
}

func (p *page) sample(name, typ, help string, labels [][2]string, v float64) {
	if p.seen == nil {
		p.seen = make(map[string]bool)
	}
	if !p.seen[name] {
		p.seen[name] = true
		fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	if len(labels) == 0 {
		fmt.Fprintf(p.w, "%s %s\n", name, formatValue(v))
		return
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l[0], escapeLabel(l[1]))
	}
	fmt.Fprintf(p.w, "%s{%s} %s\n", name, strings.Join(parts, ","), formatValue(v))
}

// escapeLabel applies the exposition-format label escapes (backslash,
// double quote, newline). %q supplies quote/backslash escaping already
// compatible with Prometheus; newlines need the two-character form,
// which %q also produces — so only literal characters %q would leave
// alone need no further handling. Control characters beyond \n render
// as Go escapes, which Prometheus tolerates as opaque bytes.
func escapeLabel(s string) string {
	// fmt %q in sample() performs the actual quoting; this hook keeps
	// the value printable by replacing the rare invalid UTF-8 bytes.
	return strings.ToValidUTF8(s, "�")
}

// formatValue renders floats the Prometheus way (NaN/Inf spelled out).
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return formatFloat(v)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WriteStats renders an agent stats snapshot: run-level counters, the
// decision rate, prediction error, then per-server occupancy and
// per-tenant service gauges with stable label order.
func WriteStats(w io.Writer, s agent.Stats) {
	p := &page{w: w}
	p.sample("casched_decisions_total", "counter", "Committed placement decisions observed.", nil, float64(s.Decisions))
	p.sample("casched_completions_total", "counter", "Task completions observed.", nil, float64(s.Completions))
	p.sample("casched_reports_total", "counter", "Monitor load reports observed.", nil, float64(s.Reports))
	p.sample("casched_sheds_total", "counter", "Intake refusals (throttled or deadline).", nil, float64(s.Sheds))
	p.sample("casched_span_seconds", "gauge", "Experiment-time span covered by the snapshot.", nil, s.Span)
	p.sample("casched_decisions_per_second", "gauge", "Decision rate over the covered span (experiment time).", nil, s.DecisionsPerSec)
	p.sample("casched_prediction_abs_error_mean", "gauge", "Mean absolute HTM prediction error over completed tasks.", nil, s.MeanAbsPredictionError)
	p.sample("casched_prediction_samples_total", "counter", "Completions with an HTM prediction behind the mean error.", nil, float64(s.PredictionSamples))

	servers := make([]string, 0, len(s.Occupancy))
	for name := range s.Occupancy {
		servers = append(servers, name)
	}
	sort.Strings(servers)
	for _, name := range servers {
		occ := s.Occupancy[name]
		l := [][2]string{{"server", name}}
		p.sample("casched_server_in_flight", "gauge", "Tasks placed on the server and not yet completed.", l, float64(occ.InFlight))
		p.sample("casched_server_decisions_total", "counter", "Placements committed to the server.", l, float64(occ.Decisions))
		p.sample("casched_server_completions_total", "counter", "Completions observed from the server.", l, float64(occ.Completions))
		if !math.IsNaN(occ.ReportedLoad) {
			p.sample("casched_server_reported_load", "gauge", "Last monitor-reported load average.", l, occ.ReportedLoad)
		}
	}

	tenants := make([]string, 0, len(s.Tenants))
	for name := range s.Tenants {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		ts := s.Tenants[name]
		l := [][2]string{{"tenant", name}}
		p.sample("casched_tenant_decisions_total", "counter", "Placements committed for the tenant.", l, float64(ts.Decisions))
		p.sample("casched_tenant_completions_total", "counter", "Completions observed for the tenant.", l, float64(ts.Completions))
		p.sample("casched_tenant_sheds_total", "counter", "Intake refusals for the tenant.", l, float64(ts.Shed))
		p.sample("casched_tenant_throttled_total", "counter", "Token-bucket refusals for the tenant.", l, float64(ts.Throttled))
		p.sample("casched_tenant_deadline_shed_total", "counter", "Deadline-admission refusals for the tenant.", l, float64(ts.DeadlineShed))
		p.sample("casched_tenant_deadline_misses_total", "counter", "Completions past their deadline for the tenant.", l, float64(ts.DeadlineMisses))
		p.sample("casched_tenant_sum_flow_seconds", "counter", "Accumulated flow time (completion minus submission) for the tenant.", l, ts.SumFlow)
	}
}

// WriteEval renders the HTM evaluation counters. Candidates minus
// projections is the number of candidate projections the pruned pass
// skipped, by their bound or (the replicated count) by letting the one
// projection of an idle cost class answer for its other idle members;
// the ratio projections/candidates
// falls toward a few per pool on a lightly loaded deployment and rises
// to 1 as it saturates. Trace
// steps per decision stay at a few whatever the pool holds: a trace is
// stepped at its own events, not at every arrival. Busy traces visited
// per HMCT decision are the few whose CPU frees before the best idle
// class could finish; near the busy count means the pass no longer
// stops early (MSF, or a saturated pool). Name lookups and
// index builds growing with the decision count mean the candidate index
// is being bypassed or rebuilt per decision. Baseline refreshes stay near
// zero per HMCT or MSF decision, whose commit installs the projection the
// pass made; about one per decision means the commits miss. Ceiling-beaten
// evaluations count the shards of a sharded HMCT or MSF decision that
// could not pass the best score the shards before them had found, and so
// projected only what came within reach of it. Memo-reused predictions
// are those a burst's later members read instead of projecting: a
// candidate whose trace nothing changed since its last projection at the
// same arrival.
func WriteEval(w io.Writer, st htm.EvalStats) {
	p := &page{w: w}
	p.sample("casched_htm_candidates_total", "counter", "Solvable candidate servers offered to HTM evaluation passes.", nil, float64(st.Candidates))
	p.sample("casched_htm_projections_total", "counter", "Candidate servers the HTM projected (the rest were pruned by their bound or served from an idle class).", nil, float64(st.Projections))
	p.sample("casched_htm_replicated_total", "counter", "Idle candidates answered for by the one projection of their cost class's first idle server.", nil, float64(st.Replicated))
	p.sample("casched_htm_trace_steps_total", "counter", "Server traces the HTM's clock stepped through a due event (a release or a phase end).", nil, float64(st.Stepped))
	p.sample("casched_htm_bounded_total", "counter", "Busy server traces the pruned pass visited in CPU-free order before it stopped (every busy trace under MSF, which reads the jobs only of those its CPU-free date cannot rule out).", nil, float64(st.Bounded))
	p.sample("casched_htm_name_lookups_total", "counter", "Candidates resolved by server name instead of through the candidate index.", nil, float64(st.NameLookups))
	p.sample("casched_htm_index_builds_total", "counter", "Candidate-index builds (one per task type and pool membership).", nil, float64(st.IndexBuilds))
	p.sample("casched_htm_ceiling_beaten_total", "counter", "Shard evaluations that could not win below the best score a sharded decision had already found, and so projected only what came within reach of it.", nil, float64(st.Beaten))
	p.sample("casched_htm_memo_reused_total", "counter", "Predictions served from the HTM's memo instead of projected: the candidate's trace had not changed since its last projection for the task type at the same arrival (a burst of same-date arrivals).", nil, float64(st.Reused))
	p.sample("casched_htm_baseline_refreshes_total", "counter", "Baseline projections of a server trace run because it changed since its baseline was taken (a placement the last pruned pass projected installs that projection instead).", nil, float64(st.Refreshes))
}

// relayNever is the MemberInfo sentinel for "no successful relay pull
// yet" (fed.Dispatcher.Members).
const relayNever = time.Duration(math.MaxInt64)

// WriteMembers renders federation member diagnostics, including the
// per-member relay lag/staleness gauges.
func WriteMembers(w io.Writer, members []fed.MemberInfo) {
	p := &page{w: w}
	sorted := append([]fed.MemberInfo(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		l := [][2]string{{"member", m.Name}}
		p.sample("casched_fed_member_servers", "gauge", "Servers the dispatcher routes to the member.", l, float64(m.Servers))
		p.sample("casched_fed_member_reported_servers", "gauge", "Servers the member's last summary claimed.", l, float64(m.ReportedServers))
		p.sample("casched_fed_member_in_flight", "gauge", "In-flight tasks from the member's last summary.", l, float64(m.InFlight))
		p.sample("casched_fed_member_evicted", "gauge", "1 when the member is currently evicted.", l, boolGauge(m.Evicted))
		p.sample("casched_fed_member_fresh", "gauge", "1 when the member's summary is fresh enough for exact routing.", l, boolGauge(m.Fresh))
		p.sample("casched_fed_member_summary_age_seconds", "gauge", "Age of the member's last load summary.", l, m.SummaryAge.Seconds())
		p.sample("casched_fed_member_relay_capable", "gauge", "1 when the member speaks the relay protocol.", l, boolGauge(m.RelayCapable))
		p.sample("casched_fed_member_relay_synced", "gauge", "1 when the member's relay view is routable.", l, boolGauge(m.RelaySynced))
		p.sample("casched_fed_member_relay_seq", "counter", "Member relay-ledger sequence folded into the dispatcher view.", l, float64(m.RelaySeq))
		p.sample("casched_fed_member_relay_pending", "gauge", "Optimistic delegations not yet confirmed by relayed events.", l, float64(m.RelayPending))
		age := m.RelayAge
		if age == relayNever {
			// Never pulled: surface staleness as +Inf rather than a
			// bogus finite lag.
			p.sample("casched_fed_member_relay_age_seconds", "gauge", "Time since the last successful relay pull (+Inf = never).", l, math.Inf(1))
		} else {
			p.sample("casched_fed_member_relay_age_seconds", "gauge", "Time since the last successful relay pull (+Inf = never).", l, age.Seconds())
		}
	}
}

// WriteRelay renders the dispatcher-level relay counters.
func WriteRelay(w io.Writer, rs fed.RelayStats) {
	p := &page{w: w}
	p.sample("casched_fed_relay_events_folded_total", "counter", "Relay events folded into member views.", nil, float64(rs.EventsFolded))
	p.sample("casched_fed_relay_routed_total", "counter", "Degraded-mode delegations priced by relay views.", nil, float64(rs.Delegated))
}

// WriteHA renders a replicated dispatcher's election posture: the
// current term, whether this replica leads, the standby replication
// lag behind each member's relay ledger, and the partition moves the
// self-healing path performed.
func WriteHA(w io.Writer, st ha.Status) {
	p := &page{w: w}
	p.sample("casched_ha_term", "gauge", "Current election term known to this replica.", nil, float64(st.Term))
	p.sample("casched_ha_is_leader", "gauge", "1 when this replica holds the leader lease.", nil, boolGauge(st.IsLeader))
	p.sample("casched_fed_reassigned_servers_total", "counter", "Server partition moves from graceful leaves and dead-member reassignment.", nil, float64(st.ReassignedServers))
	members := make([]string, 0, len(st.StandbyLag))
	for name := range st.StandbyLag {
		members = append(members, name)
	}
	sort.Strings(members)
	for _, name := range members {
		l := [][2]string{{"member", name}}
		p.sample("casched_ha_standby_lag_events", "gauge", "Relay-ledger events the standby mirror trails the member by.", l, float64(st.StandbyLag[name]))
	}
}
