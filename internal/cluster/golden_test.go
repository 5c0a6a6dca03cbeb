package cluster

// Golden placements: the sharded Cluster's decisions, shed reasons and
// merged event order, recorded from the dispatch code as it stood
// before Cluster and the federated Dispatcher were merged into one
// core. fedparity_test.go compares the live-signal route with the
// summary-signal route, so once both run the same fan-out a bug in the
// shared code would pass it; these files are the fixed point it cannot
// move. Regenerate with `go test ./internal/cluster -run
// TestGoldenPlacements -update` only when a placement change is
// intended and explained.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casched/internal/agent"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/placements/*.golden")

var goldenHeuristics = []string{"HMCT", "MCT", "MP", "MSF", "MNI", "Random", "RoundRobin"}

// goldenLog is one run's record: an outcome line per request in
// submission order, then every merged-stream event in delivery order.
type goldenLog struct {
	outcomes []string
	events   []string
	shed     map[int]string // job -> shed reason, from the event stream
}

func (g *goldenLog) observe(ev agent.Event) {
	if ev.Kind == agent.EventShed {
		g.shed[ev.JobID] = ev.Reason
	}
	line := fmt.Sprintf("kind=%d job=%d server=%s t=%.9g", ev.Kind, ev.JobID, ev.Server, ev.Time)
	if ev.HasPrediction {
		line += fmt.Sprintf(" predicted=%.9g", ev.Predicted)
	}
	if ev.Tenant != "" {
		line += " tenant=" + ev.Tenant
	}
	if ev.Reason != "" {
		line += " reason=" + ev.Reason
	}
	g.events = append(g.events, line)
}

// outcome records one request's fate: the server, or the shed reason
// the stream carried for it, or the error class. Error text is left
// out on purpose — its prefix names the layer that produced it.
func (g *goldenLog) outcome(req agent.Request, dec agent.Decision, err error) {
	switch {
	case dec.Server != "":
		g.outcomes = append(g.outcomes, fmt.Sprintf("%d %s", req.JobID, dec.Server))
	case g.shed[req.JobID] != "":
		g.outcomes = append(g.outcomes, fmt.Sprintf("%d shed=%s", req.JobID, g.shed[req.JobID]))
	case errors.Is(err, agent.ErrUnschedulable):
		g.outcomes = append(g.outcomes, fmt.Sprintf("%d unschedulable", req.JobID))
	default:
		g.outcomes = append(g.outcomes, fmt.Sprintf("%d failed", req.JobID))
	}
}

func (g *goldenLog) String() string {
	return "placements:\n" + strings.Join(g.outcomes, "\n") +
		"\nevents:\n" + strings.Join(g.events, "\n") + "\n"
}

func completionDate(req agent.Request, dec agent.Decision) float64 {
	if dec.HasPrediction {
		return dec.Predicted
	}
	return req.Arrival + 15
}

// goldenBursts groups the stream into bursts of k sharing the first
// member's arrival date.
func goldenBursts(reqs []agent.Request, k int) [][]agent.Request {
	var out [][]agent.Request
	for i := 0; i < len(reqs); i += k {
		b := append([]agent.Request(nil), reqs[i:min(i+k, len(reqs))]...)
		for j := range b {
			b[j].Arrival = b[0].Arrival
		}
		out = append(out, b)
	}
	return out
}

func goldenCluster(t *testing.T, heuristic string, shards int, opts ...Option) (*Cluster, *goldenLog) {
	t.Helper()
	opts = append([]Option{WithShards(shards), WithHeuristic(heuristic), WithSeed(11)}, opts...)
	cl, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for _, srv := range parityServers {
		cl.AddServer(srv)
	}
	g := &goldenLog{shed: make(map[int]string)}
	cl.Subscribe(g.observe)
	return cl, g
}

// goldenSubmit: Set2(60,12,7) one request at a time, every fourth job
// completed at its predicted date.
func goldenSubmit(t *testing.T, heuristic string, shards int) string {
	cl, g := goldenCluster(t, heuristic, shards)
	for i, req := range parityStream(60) {
		dec, err := cl.Submit(req)
		g.outcome(req, dec, err)
		if err == nil && i%4 == 3 {
			cl.Complete(dec.JobID, dec.Server, completionDate(req, dec))
		}
	}
	return g.String()
}

// goldenBatch: the same stream in bursts of 8 through SubmitBatch.
func goldenBatch(t *testing.T, heuristic string, shards int) string {
	cl, g := goldenCluster(t, heuristic, shards)
	n := 0
	for _, b := range goldenBursts(parityStream(60), 8) {
		decs, err := cl.SubmitBatch(b)
		for i, req := range b {
			g.outcome(req, decs[i], err)
			if decs[i].Server != "" && n%4 == 3 {
				cl.Complete(decs[i].JobID, decs[i].Server, completionDate(req, decs[i]))
			}
			n++
		}
	}
	return g.String()
}

// goldenTenants: tenanted bursts with shares 4:2:1, admission on (every
// fifth request carries a deadline it cannot make) and an intake limit
// that refuses part of each burst.
func goldenTenants(t *testing.T, heuristic string, shards int) string {
	cl, g := goldenCluster(t, heuristic, shards,
		WithTenantShares(map[string]float64{"gold": 4, "silver": 2, "bronze": 1}),
		WithAdmission(true), WithIntakeLimit(0.05, 6))
	tenants := []string{"gold", "silver", "bronze"}
	n := 0
	for _, b := range goldenBursts(parityStream(60), 8) {
		for j := range b {
			b[j].Tenant = tenants[(n+j)%len(tenants)]
			b[j].Deadline = b[j].Arrival + 1e6
			if (n+j)%5 == 4 {
				b[j].Deadline = b[j].Arrival + 1
			}
		}
		decs, err := cl.SubmitBatch(b)
		for i, req := range b {
			g.outcome(req, decs[i], err)
			if decs[i].Server != "" && n%4 == 3 {
				cl.Complete(decs[i].JobID, decs[i].Server, completionDate(req, decs[i]))
			}
			n++
		}
	}
	return g.String()
}

func TestGoldenPlacements(t *testing.T) {
	workloads := []struct {
		name string
		run  func(*testing.T, string, int) string
	}{
		{"submit", goldenSubmit},
		{"batch", goldenBatch},
		{"tenants", goldenTenants},
	}
	for _, wl := range workloads {
		for _, shards := range []int{1, 3, 4} {
			path := filepath.Join("testdata", "placements", fmt.Sprintf("%s-shards%d.golden", wl.name, shards))
			var got bytes.Buffer
			sections := make(map[string]string, len(goldenHeuristics))
			for _, h := range goldenHeuristics {
				sections[h] = wl.run(t, h, shards)
				fmt.Fprintf(&got, "== %s ==\n%s", h, sections[h])
			}
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(want, got.Bytes()) {
				continue
			}
			// Name the heuristic and the first line that moved.
			for _, h := range goldenHeuristics {
				_, rest, _ := strings.Cut(string(want), "== "+h+" ==\n")
				wantSec, _, _ := strings.Cut(rest, "== ")
				if wantSec == sections[h] {
					continue
				}
				recorded, now := strings.Split(wantSec, "\n"), strings.Split(sections[h], "\n")
				for i := 0; i < len(recorded) && i < len(now); i++ {
					if recorded[i] != now[i] {
						t.Errorf("%s %s: line %d: recorded %q, got %q", path, h, i+1, recorded[i], now[i])
						break
					}
				}
				if len(recorded) != len(now) {
					t.Errorf("%s %s: recorded %d lines, got %d", path, h, len(recorded), len(now))
				}
			}
			t.Errorf("%s differs from the recorded run", path)
		}
	}
}
