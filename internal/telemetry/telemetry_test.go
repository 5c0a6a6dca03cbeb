package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/fed"
	"casched/internal/ha"
	"casched/internal/htm"
)

func sampleStats() agent.Stats {
	return agent.Stats{
		Decisions:              12,
		Completions:            9,
		Reports:                4,
		Sheds:                  1,
		Span:                   30,
		DecisionsPerSec:        0.4,
		MeanAbsPredictionError: 1.25,
		PredictionSamples:      9,
		Occupancy: map[string]agent.Occupancy{
			"m2": {InFlight: 3, Decisions: 7, Completions: 4, ReportedLoad: 0.5},
			"m1": {InFlight: 0, Decisions: 5, Completions: 5, ReportedLoad: math.NaN()},
		},
		Tenants: map[string]agent.TenantStats{
			"gold": {Decisions: 8, Completions: 6, SumFlow: 42.5},
		},
	}
}

func TestWriteStatsRendersGauges(t *testing.T) {
	var b strings.Builder
	WriteStats(&b, sampleStats())
	out := b.String()
	for _, want := range []string{
		"# TYPE casched_decisions_total counter",
		"casched_decisions_total 12",
		"casched_decisions_per_second 0.4",
		`casched_server_in_flight{server="m1"} 0`,
		`casched_server_in_flight{server="m2"} 3`,
		`casched_server_reported_load{server="m2"} 0.5`,
		`casched_tenant_sum_flow_seconds{tenant="gold"} 42.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// NaN reported load is skipped rather than rendered.
	if strings.Contains(out, `casched_server_reported_load{server="m1"}`) {
		t.Errorf("NaN load for m1 should be skipped:\n%s", out)
	}
	// One HELP/TYPE header per family even with several servers.
	if n := strings.Count(out, "# TYPE casched_server_in_flight gauge"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1", n)
	}
	// Stable order: m1 before m2.
	if strings.Index(out, `server="m1"`) > strings.Index(out, `server="m2"`) {
		t.Errorf("server labels not sorted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	var b strings.Builder
	s := agent.Stats{Occupancy: map[string]agent.Occupancy{
		`we"ird\name` + "\n": {InFlight: 1, ReportedLoad: math.NaN()},
	}}
	WriteStats(&b, s)
	out := b.String()
	if !strings.Contains(out, `server="we\"ird\\name\n"`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestWriteMembersRelayGauges(t *testing.T) {
	var b strings.Builder
	WriteMembers(&b, []fed.MemberInfo{
		{Name: "b", Servers: 2, RelayCapable: true, RelaySynced: true,
			RelaySeq: 17, RelayAge: 250 * time.Millisecond, RelayPending: 1},
		{Name: "a", Servers: 2, RelayAge: time.Duration(math.MaxInt64)},
	})
	out := b.String()
	for _, want := range []string{
		`casched_fed_member_relay_seq{member="b"} 17`,
		`casched_fed_member_relay_age_seconds{member="b"} 0.25`,
		`casched_fed_member_relay_age_seconds{member="a"} +Inf`,
		`casched_fed_member_relay_synced{member="b"} 1`,
		`casched_fed_member_relay_capable{member="a"} 0`,
		`casched_fed_member_relay_pending{member="b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, `member="a"`) > strings.Index(out, `member="b"`) {
		t.Errorf("member labels not sorted:\n%s", out)
	}
}

func TestWriteHAGauges(t *testing.T) {
	var b strings.Builder
	WriteHA(&b, ha.Status{
		ID: "da", Term: 3, IsLeader: true, ReassignedServers: 2,
		StandbyLag: map[string]uint64{"m2": 4, "m1": 0},
	})
	out := b.String()
	for _, want := range []string{
		"casched_ha_term 3",
		"casched_ha_is_leader 1",
		"casched_fed_reassigned_servers_total 2",
		`casched_ha_standby_lag_events{member="m1"} 0`,
		`casched_ha_standby_lag_events{member="m2"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, `member="m1"`) > strings.Index(out, `member="m2"`) {
		t.Errorf("lag labels not sorted:\n%s", out)
	}
	b.Reset()
	WriteHA(&b, ha.Status{Term: 1})
	if !strings.Contains(b.String(), "casched_ha_is_leader 0") {
		t.Errorf("standby posture not rendered:\n%s", b.String())
	}
}

func TestWriteEvalCounters(t *testing.T) {
	var b strings.Builder
	WriteEval(&b, htm.EvalStats{Candidates: 2048, Projections: 23, Replicated: 41, Stepped: 5, Bounded: 9, NameLookups: 7, IndexBuilds: 3, Refreshes: 4, Beaten: 6, Reused: 8})
	out := b.String()
	for _, want := range []string{
		"# TYPE casched_htm_candidates_total counter",
		"casched_htm_candidates_total 2048",
		"casched_htm_projections_total 23",
		"# TYPE casched_htm_replicated_total counter",
		"casched_htm_replicated_total 41",
		"# TYPE casched_htm_trace_steps_total counter",
		"casched_htm_trace_steps_total 5",
		"# TYPE casched_htm_bounded_total counter",
		"casched_htm_bounded_total 9",
		"# TYPE casched_htm_name_lookups_total counter",
		"casched_htm_name_lookups_total 7",
		"casched_htm_index_builds_total 3",
		"# TYPE casched_htm_baseline_refreshes_total counter",
		"casched_htm_baseline_refreshes_total 4",
		"# TYPE casched_htm_ceiling_beaten_total counter",
		"casched_htm_ceiling_beaten_total 6",
		"# TYPE casched_htm_memo_reused_total counter",
		"casched_htm_memo_reused_total 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestServerServesMetrics(t *testing.T) {
	srv, err := Start("", Config{
		Stats:   func() agent.Stats { return sampleStats() },
		Members: func() []fed.MemberInfo { return []fed.MemberInfo{{Name: "m", RelayAge: time.Second}} },
		Relay:   func() fed.RelayStats { return fed.RelayStats{EventsFolded: 5, Delegated: 3} },
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	out := string(body)
	for _, want := range []string{
		"casched_decisions_total 12",
		`casched_fed_member_summary_age_seconds{member="m"}`,
		"casched_fed_relay_events_folded_total 5",
		"casched_fed_relay_routed_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestServerServesPprof pins the -pprof-addr contract: with
// Config.Pprof the same server mounts the net/http/pprof index and
// profile endpoints next to /metrics; without it they 404.
func TestServerServesPprof(t *testing.T) {
	srv, err := Start("", Config{
		Stats: func() agent.Stats { return sampleStats() },
		Pprof: true,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	for path, want := range map[string]int{
		"/debug/pprof/":        http.StatusOK,
		"/debug/pprof/cmdline": http.StatusOK,
		"/metrics":             http.StatusOK,
	} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	plain, err := Start("", Config{Stats: func() agent.Stats { return sampleStats() }})
	if err != nil {
		t.Fatalf("start plain: %v", err)
	}
	defer plain.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", plain.Addr()))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}
}
