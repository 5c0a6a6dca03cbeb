// Command casbench is the repository's end-to-end decision benchmark.
// It builds each deployment shape through the public constructors,
// drives it with a seeded request stream, checks the answers and prints
// every metric by name with its unit. See bench/README.md.
//
//	casbench                         all four workloads, end to end
//	casbench -workload fed_wire_128  one workload
//	casbench -trace 1 [-workload w]  the traced, per-layer pass
//	casbench -compare a.json b.json  two summaries against the bounds
//
// With -workload the last line of standard output is one JSON object
// holding correct, attempted, failed and the metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the timed window's length: the one BENCHMARK.json
// gates at, so agree.sh and a plain run measure what the driver does.
const defaultSeconds = 30

// lastLine is what a single-workload run prints last.
type lastLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary is what an all-workloads run writes with -summary: per
// workload, the last line of its run.
type summary struct {
	Seed      uint64              `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	Env       envRecord           `json:"env"`
	Workloads map[string]lastLine `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "seed of the request stream")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		out     = flag.String("out", defaultOutDir(), "directory for result documents and trace files")
		sumPath = flag.String("summary", "", "with -workload all: also write the per-workload metrics to this file")
		compare = flag.Bool("compare", false, "compare the two summary files given as arguments against the bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two summary files"))
		}
		breaches, err := compareSummaries(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if breaches > 0 {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	o := runOpts{seed: *seed, seconds: *seconds, outDir: *out}
	if *name == "all" {
		if err := runAll(o, *trace != 0, *sumPath); err != nil {
			fatal(err)
		}
		return
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	r, err := run(wl, o, *trace != 0)
	if err != nil {
		fatal(err)
	}
	r.print(os.Stdout)
	if err := r.write(*out); err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(r.lastLine())
	fmt.Println(string(line))
	if !r.Correct {
		fmt.Fprintln(os.Stderr, "casbench: correctness checks FAILED")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "casbench:", err)
	os.Exit(2)
}

// defaultOutDir is bench/out from the repository root, out from bench/.
func defaultOutDir() string {
	if st, err := os.Stat(filepath.Join("bench", "cmd", "casbench")); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// lastLine selects the metrics the run's mode reports: every end-to-end
// metric, or every per-layer metric.
func (r *result) lastLine() lastLine {
	defs := endToEndMetrics
	if r.Traced {
		defs = perLayerMetrics
	}
	l := lastLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		// A layer the workload does not use was never measured: it reads 0.
		l.Metrics[d.Name] = metric{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return l
}

// write stores the run as one JSON document.
func (r *result) write(dir string) error {
	kind := "e2e"
	if r.Traced {
		kind = "trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%s.json", r.Workload.Name, kind, r.Seed,
		time.Now().UTC().Format("20060102T150405.000")))
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}

// print renders the human table.
func (r *result) print(w io.Writer) {
	wl := r.Workload
	fmt.Fprintf(w, "== %s  seed %d  %.0f s  %s\n", wl.Name, r.Seed, r.Seconds, map[bool]string{false: "end to end", true: "traced"}[r.Traced])
	fmt.Fprintf(w, "   why: %s\n", wl.Why)
	fmt.Fprintf(w, "   shape %s, %d servers, %s, shards %d, members %d, callers %d, burst %d, mean gap %g s, retire lag %d, warm-up %d\n",
		wl.Shape, wl.Servers, wl.Heuristic, wl.Shards, wl.Members, wl.Callers, wl.Burst, wl.MeanGap, wl.RetireLag, wl.Warmup)
	e := r.Env
	fmt.Fprintf(w, "   env: commit %s, %s %s/%s, GOMAXPROCS %d, nproc %d, %s\n",
		e.Commit, e.GoVersion, e.GOOS, e.GOARCH, e.GOMAXPROCS, e.NumCPU, e.CPUModel)
	defs := endToEndMetrics
	if r.Traced {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		note := ""
		if d.Bound > 0 {
			note = fmt.Sprintf("  (%s is better, bound %.2f)", d.Better, d.Bound)
		}
		fmt.Fprintf(w, "   %-30s %14.4f %-6s%s\n", d.Name, m.Value, d.Unit, note)
	}
	if x := r.Window; x != nil {
		if n := len(x.SubSamples); n > 0 {
			fmt.Fprintf(w, "   each timing above is the best of %d sub-windows, of %d to %d samples\n", n, slices.Min(x.SubSamples), slices.Max(x.SubSamples))
		}
		fmt.Fprintf(w, "   whole window (%d samples, %.1f s): %.1f /s, p50 %.1f us, p99 %.1f us, p99.9 %.1f us, max %.1f us, cpu %.1f us\n",
			x.Samples, x.WallS, x.WholePerS, x.WholeP50US, x.WholeP99US, x.P999US, x.MaxUS, x.WholeCPUUS)
		fmt.Fprintf(w, "   memory: %.3f allocs and %.1f B per decision, %d collections pausing %.2f ms, heap %.1f MB, peak RSS %.1f MB\n",
			x.AllocsPerDec, x.BytesPerDec, x.GCCycles, x.GCPauseMS, x.HeapLiveMB, r.PeakRSSMB)
	}
	if len(r.LiveJobs) == 2 {
		fmt.Fprintf(w, "   occupancy: offered utilisation %.2f, live jobs per server %.2f -> %.2f, unstable=%v\n",
			r.OfferedUtl, r.LiveJobs[0], r.LiveJobs[1], r.Unstable)
	}
	if r.OpenLoop != nil {
		fmt.Fprintf(w, "   open loop (diagnostic, never gated): %d requests at %.0f /s, %d failed\n", r.OpenLoop.Sent, r.OpenLoop.RatePerS, r.OpenLoop.Failed)
	}
	fmt.Fprintf(w, "   operations: %d attempted, %d failed; set-up samples %.3f s\n", r.Attempted, r.Failed, r.SetupS)
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "   check %s %s %s\n", status, c.Name, c.Detail)
	}
	if r.Budget != nil {
		r.Budget.print(w, wl.Name, r.UntracedP50)
		if r.DroppedSp > 0 {
			fmt.Fprintf(w, "  %d spans did not fit the buffer\n", r.DroppedSp)
		}
		if r.TraceFile != "" {
			fmt.Fprintf(w, "  spans written to %s\n", r.TraceFile)
		}
	}
}

// runAll runs every workload, each in a fresh process of this binary,
// passing their output through and collecting their last lines.
func runAll(o runOpts, traced bool, sumPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sum := summary{Seed: o.seed, Seconds: o.seconds, Traced: traced, Env: readEnv(), Workloads: map[string]lastLine{}}
	incorrect := 0
	for _, wl := range workloads {
		args := []string{"-workload", wl.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-out", o.outDir}
		if traced {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var l lastLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
			return fmt.Errorf("%s: no result (%v)", wl.Name, runErr)
		}
		sum.Workloads[wl.Name] = l
		if !l.Correct || l.Failed > 0 {
			incorrect++
		}
		fmt.Println()
	}
	if sumPath != "" {
		doc, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(sumPath, append(doc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workloads failed their checks", incorrect)
	}
	return nil
}

// compareSummaries prints, per workload and end-to-end metric, both
// runs' values, how much worse the second is as a share of the first,
// and the bound; it returns the number of breaches. setup_s included.
func compareSummaries(w io.Writer, pathA, pathB string) (int, error) {
	load := func(path string) (summary, error) {
		var s summary
		f, err := os.Open(path)
		if err != nil {
			return s, err
		}
		defer f.Close()
		return s, json.NewDecoder(f).Decode(&s)
	}
	a, err := load(pathA)
	if err != nil {
		return 0, err
	}
	b, err := load(pathB)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	breaches := 0
	fmt.Fprintf(w, "%-20s %-22s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "differ", "bound")
	for _, n := range names {
		for _, d := range endToEndMetrics {
			va, vb := a.Workloads[n].Metrics[d.Name].Value, b.Workloads[n].Metrics[d.Name].Value
			// Runs of the same code have no better side: the difference
			// either way must stay inside the bound.
			diff := math.Abs(vb-va) / math.Min(va, vb)
			flag := ""
			if !(diff <= d.Bound) {
				flag = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-20s %-22s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", n, d.Name, va, vb, 100*diff, 100*d.Bound, flag)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d metric(s) differ by more than their bound\n", breaches)
	}
	return breaches, nil
}
