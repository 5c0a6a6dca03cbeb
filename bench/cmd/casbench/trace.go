package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded from bench/ code: around a public
// call, or inside a wrapper the harness injected (scheduler, evaluator,
// federation member). Nothing inside the program is instrumented.
type spanName uint8

const (
	spAgentSubmit spanName = iota
	spAgentComplete
	spClusterSubmit
	spClusterBatch
	spSchedChoose
	spHTMEvaluateAll
	spFedSubmit
	spLiveEvaluate
	spLiveCommit
	spLiveSubmit
	spLiveSummary
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"agent.submit", "agent.complete", "cluster.submit", "cluster.submit_batch",
	"sched.choose", "htm.evaluate_all", "fed.submit",
	"live.evaluate", "live.commit", "live.submit", "live.summary",
}

// spanLayer maps a span to the layer (module) whose self time it is.
var spanLayer = [numSpanNames]string{
	"agent", "agent", "cluster", "cluster",
	"sched", "htm", "fed",
	"live", "live", "live", "live",
}

func (n spanName) String() string { return spanNames[n] }

// span is one recorded interval. Times are nanoseconds since the
// tracer's origin; Parent is the index of the span that caused this one
// (-1 for a root); Job is the job id shared by the spans of one decision
// (-1 when the call carries none); Lane is the shard or member index;
// N is a count recorded at the boundary (predictions returned).
type span struct {
	Name   spanName
	Lane   int16
	N      int32
	Parent int32
	Job    int64
	Start  int64
	End    int64
}

const maxLanes = 16

// tracer is a preallocated in-memory span buffer shared by every
// wrapper of one traced deployment. Slots are claimed with one atomic
// add; when the buffer is full further spans are dropped and counted.
type tracer struct {
	t0      time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	on      atomic.Bool

	// roots holds, per caller, the open root span and the job-id range
	// it covers, so spans recorded on other goroutines (fan-out workers,
	// member handlers) find their parent by job id.
	roots [4]struct {
		lo, hi atomic.Int64
		idx    atomic.Int32
	}
	// laneParent overrides the root lookup for one lane: a member
	// wrapper publishes its open Evaluate span here, so the member-side
	// scheduler span nests under the RPC that caused it.
	laneParent [maxLanes]atomic.Int32
}

func newTracer(capacity int) *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, capacity)}
	for i := range t.roots {
		t.roots[i].idx.Store(-1)
	}
	for i := range t.laneParent {
		t.laneParent[i].Store(-1)
	}
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its index, or -1 when the buffer is
// full or tracing is off.
func (t *tracer) begin(name spanName, job int64, lane int, parent int32) int32 {
	if !t.enabled() {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Lane: int16(lane), Parent: parent, Job: job,
		Start: int64(time.Since(t.t0)), End: -1}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) setCount(i int32, n int) {
	if i >= 0 {
		t.spans[i].N = int32(n)
	}
}

// beginRoot opens a root span covering job ids [lo, hi) for one caller.
func (t *tracer) beginRoot(caller int, name spanName, lo, hi int64) int32 {
	i := t.begin(name, lo, caller, -1)
	if i < 0 {
		return -1
	}
	r := &t.roots[caller]
	r.lo.Store(lo)
	r.hi.Store(hi)
	r.idx.Store(i)
	return i
}

func (t *tracer) endRoot(caller int, i int32) {
	if i >= 0 {
		t.end(i)
		t.roots[caller].idx.Store(-1)
	}
}

// parentFor resolves the parent of a span recorded away from the
// caller's goroutine: the lane's published parent if any, else the open
// root whose job range holds the job.
func (t *tracer) parentFor(lane int, job int64) int32 {
	if lane >= 0 && lane < maxLanes {
		if p := t.laneParent[lane].Load(); p >= 0 {
			return p
		}
	}
	for c := range t.roots {
		r := &t.roots[c]
		if idx := r.idx.Load(); idx >= 0 && job >= r.lo.Load() && job < r.hi.Load() {
			return idx
		}
	}
	return -1
}

// recorded returns the closed spans. Call only once every traced call
// has returned.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := childIndex(spans)
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start - covered(spans, children[i])
	}
	return self
}

func childIndex(spans []span) [][]int32 {
	children := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && spans[i].End >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	return children
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, idx []int32) int64 {
	if len(idx) == 0 {
		return 0
	}
	sorted := append([]int32(nil), idx...)
	sort.Slice(sorted, func(a, b int) bool { return spans[sorted[a]].Start < spans[sorted[b]].Start })
	var total int64
	lo, hi := spans[sorted[0]].Start, spans[sorted[0]].End
	for _, i := range sorted[1:] {
		if s := spans[i]; s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

// budget is the layer budget of one traced pass: for every decision the
// self times along its blocking path, summed per layer, then the median
// of each layer over the decisions.
type budget struct {
	Decisions int                `json:"decisions"`
	LayerUS   map[string]float64 `json:"layer_us"`
	SumUS     float64            `json:"sum_us"`
	Spans     []spanSummary      `json:"spans"`
}

type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	P50US   float64 `json:"p50_us"`
	SelfP50 float64 `json:"self_p50_us"`
}

// blockingPath adds span i's self time to its layer and descends into
// the children that block it: children that overlap run in parallel, so
// of each overlapping group only the one that ends last is on the path;
// the rest of the group's interval (fan-out skew) stays with the parent.
func blockingPath(spans []span, children [][]int32, i int32, perLayer map[string]int64) {
	s := spans[i]
	self := s.End - s.Start
	kids := append([]int32(nil), children[i]...)
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
	for k := 0; k < len(kids); {
		last, hi := kids[k], spans[kids[k]].End
		j := k + 1
		for ; j < len(kids) && spans[kids[j]].Start <= hi; j++ {
			if e := spans[kids[j]].End; e > hi {
				last, hi = kids[j], e
			}
		}
		self -= spans[last].End - spans[last].Start
		blockingPath(spans, children, last, perLayer)
		k = j
	}
	perLayer[spanLayer[s.Name]] += self
}

func computeBudget(spans []span, roots ...spanName) budget {
	isRoot := map[spanName]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}
	children := childIndex(spans)
	self := selfTimes(spans)
	layerSamples := map[string][]float64{}
	b := budget{LayerUS: map[string]float64{}}
	for i := range spans {
		if spans[i].Parent >= 0 || !isRoot[spans[i].Name] || spans[i].End < 0 {
			continue
		}
		perLayer := map[string]int64{}
		blockingPath(spans, children, int32(i), perLayer)
		for layer, ns := range perLayer {
			layerSamples[layer] = append(layerSamples[layer], float64(ns)/1e3)
		}
		b.Decisions++
	}
	for layer, xs := range layerSamples {
		// A layer off the path of some decisions contributes 0 to those.
		for len(xs) < b.Decisions {
			xs = append(xs, 0)
		}
		b.LayerUS[layer] = percentile(xs, 0.5)
		b.SumUS += b.LayerUS[layer]
	}
	byName := map[spanName][]int{}
	for i := range spans {
		if spans[i].End >= 0 {
			byName[spans[i].Name] = append(byName[spans[i].Name], i)
		}
	}
	for n := spanName(0); n < numSpanNames; n++ {
		idx := byName[n]
		if len(idx) == 0 {
			continue
		}
		dur := make([]float64, len(idx))
		slf := make([]float64, len(idx))
		for k, i := range idx {
			dur[k] = float64(spans[i].End-spans[i].Start) / 1e3
			slf[k] = float64(self[i]) / 1e3
		}
		b.Spans = append(b.Spans, spanSummary{Name: n.String(), Count: len(idx),
			P50US: percentile(dur, 0.5), SelfP50: percentile(slf, 0.5)})
	}
	return b
}

// spanDurations returns the durations (µs) of every closed span of one
// name.
func spanDurations(spans []span, name spanName) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name && spans[i].End >= 0 {
			out = append(out, float64(spans[i].End-spans[i].Start)/1e3)
		}
	}
	return out
}

func (b budget) print(w io.Writer, workload string, untracedP50 float64) {
	fmt.Fprintf(w, "\nlayer budget, %s (%d traced calls; median self time on the blocking path)\n", workload, b.Decisions)
	layers := make([]string, 0, len(b.LayerUS))
	for l := range b.LayerUS {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return b.LayerUS[layers[i]] > b.LayerUS[layers[j]] })
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %10.1f us  %5.1f%%\n", l, b.LayerUS[l], 100*b.LayerUS[l]/b.SumUS)
	}
	fmt.Fprintf(w, "  %-10s %10.1f us  (untraced decision_p50_us %.1f, ratio %.3f)\n", "sum", b.SumUS, untracedP50, b.SumUS/untracedP50)
	fmt.Fprintf(w, "  %-22s %8s %12s %12s\n", "span", "count", "p50 us", "self p50 us")
	for _, s := range b.Spans {
		fmt.Fprintf(w, "  %-22s %8d %12.1f %12.1f\n", s.Name, s.Count, s.P50US, s.SelfP50)
	}
}

// writeTrace dumps the spans as a JSON array, one object per span.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, `{"name":%q,"lane":%d,"job":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"n":%d}`,
			s.Name.String(), s.Lane, s.Job, s.Parent, s.Start, s.End, s.N)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
