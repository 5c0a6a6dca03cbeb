package fed

// Member-wire tests: a Remote drives all thirteen member calls over one
// framed connection, the answers are bit for bit what the member's core
// gives when called in place, and what cannot be delivered is classified
// the way the dispatcher's safety decisions need it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/live"
	"casched/internal/sched"
	"casched/internal/task"
	"casched/internal/workload"
)

// wireTap is a loopback proxy in front of a member: it counts the
// connections a Remote opens and, reading the frames the Remote writes
// as it forwards them, can tell a test when a frame of a given type has
// gone out to the member.
type wireTap struct {
	lis      net.Listener
	accepted atomic.Int32

	mu    sync.Mutex
	watch byte
	seen  chan struct{}
}

func newWireTap(t *testing.T, member string) *wireTap {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	w := &wireTap{lis: lis}
	go func() {
		for {
			in, err := lis.Accept()
			if err != nil {
				return
			}
			w.accepted.Add(1)
			out, err := net.Dial("tcp", member)
			if err != nil {
				in.Close()
				continue
			}
			go func() { io.Copy(in, out); in.Close() }()
			go func() { w.forward(out, in); out.Close() }()
		}
	}()
	return w
}

func (w *wireTap) Addr() string { return w.lis.Addr().String() }

// expect returns a channel closed once a frame of the given message type
// has been written to the member.
func (w *wireTap) expect(typ byte) <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.watch, w.seen = typ, make(chan struct{})
	return w.seen
}

// forward copies the dispatcher's half of the connection frame by frame:
// the 6-byte preamble, then [4B LE length][1B type]… (live/frame.go).
func (w *wireTap) forward(member io.Writer, dispatcher io.Reader) {
	if _, err := io.CopyN(member, dispatcher, 6); err != nil {
		return
	}
	var hdr [5]byte
	for {
		if _, err := io.ReadFull(dispatcher, hdr[:]); err != nil {
			return
		}
		if _, err := member.Write(hdr[:]); err != nil {
			return
		}
		if _, err := io.CopyN(member, dispatcher, int64(binary.LittleEndian.Uint32(hdr[:4]))-1); err != nil {
			return
		}
		w.mu.Lock()
		if w.seen != nil && hdr[4] == w.watch {
			close(w.seen)
			w.seen = nil
		}
		w.mu.Unlock()
	}
}

func startMember(t *testing.T) *live.Agent {
	t.Helper()
	m, err := live.StartAgent(live.AgentConfig{Scheduler: sched.NewHMCT(), Clock: live.NewClock(0), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func sameSummary(a, b Summary) bool {
	return a.InFlight == b.InFlight && a.Servers == b.Servers &&
		a.MinReady == b.MinReady && a.HasMinReady == b.HasMinReady &&
		maps.Equal(a.TenantInFlight, b.TenantInFlight) && maps.Equal(a.ServerReady, b.ServerReady) &&
		a.RelaySeq == b.RelaySeq && a.HasRelay == b.HasRelay
}

// TestFramedMatchesCorePlacements drives the same metatask through a
// framed Remote on a live member and through a local core of the same
// configuration behind the in-process seam, call for call, all thirteen
// member calls among them, and requires bit-identical answers: servers,
// predictions, candidates, CanSolve, partitions, summaries, relay deltas
// and in-flight counts. The reference for the wire is the core itself.
func TestFramedMatchesCorePlacements(t *testing.T) {
	m := startMember(t)
	remote := NewRemote("m", m.Addr(), 2*time.Second)
	defer remote.Close()
	core, err := agent.New(agent.Config{Scheduler: sched.NewHMCT(), Seed: 7, Relay: true})
	if err != nil {
		t.Fatal(err)
	}
	local := NewInProcess("m", core)
	// both runs one call on the reference and on the wire and requires
	// the same success.
	both := func(what string, call func(Member) error) {
		t.Helper()
		if errL, errR := call(local), call(remote); (errL == nil) != (errR == nil) {
			t.Fatalf("%s: the core answers %v, the wire %v", what, errL, errR)
		}
	}
	same := func(what string, ref, got any, equal bool) {
		t.Helper()
		if !equal {
			t.Fatalf("%s: the core answers %+v, the wire %+v", what, ref, got)
		}
	}

	for _, srv := range []string{"artimon", "spinnaker", "soyotte", "valette", "cabestan"} {
		both("AddServer", func(m Member) error { return m.AddServer(srv) })
	}
	both("RemoveServer", func(m Member) error { return m.RemoveServer("cabestan") })
	// The fence is the member process's, not the core's: wire only.
	if err := remote.Fence(3); err != nil {
		t.Fatalf("Fence(3): %v", err)
	}
	partL, _, _ := local.Partition()
	partR, ok, err := remote.Partition()
	same("Partition", partL, partR, err == nil && ok && len(partR) == 4 && slices.Equal(partL, partR))

	mt := workload.MustGenerate(workload.Set2(48, 12, 7))
	var batch []agent.Request
	for i, tk := range mt.Tasks {
		rq := agent.Request{JobID: tk.ID, TaskID: tk.ID, Spec: tk.Spec, Arrival: tk.Arrival}
		okL, _ := local.CanSolve(tk.Spec)
		okR, err := remote.CanSolve(tk.Spec)
		same("CanSolve", okL, okR, err == nil && okL == okR)

		var decL, decR agent.Decision
		switch {
		case i >= len(mt.Tasks)-4:
			// The last four go as one burst, below.
			batch = append(batch, rq)
			continue
		case i%2 == 0:
			candL, errL := local.Evaluate(rq)
			candR, errR := remote.Evaluate(rq)
			same("Evaluate", candL, candR, errL == nil && errR == nil && candL == candR)
			decL, errL = local.Commit(rq, candL.Server)
			decR, errR = remote.Commit(rq, candR.Server)
			same("Commit", decL, decR, errL == nil && errR == nil && decL == decR)
		default:
			var errL, errR error
			decL, errL = local.Submit(rq)
			decR, errR = remote.Submit(rq)
			same("Submit", decL, decR, errL == nil && errR == nil && decL == decR)
		}
		if i%4 == 3 {
			at := tk.Arrival + 15
			if decL.HasPrediction {
				at = decL.Predicted
			}
			both("Complete", func(m Member) error { return m.Complete(decL.JobID, decL.Server, at) })
		}
		if i%8 == 5 {
			both("Report", func(m Member) error { return m.Report(decL.Server, 0.25*float64(i%3), tk.Arrival) })
		}
		sumL, _ := local.Summary()
		sumR, err := remote.Summary()
		same("Summary", sumL, sumR, err == nil && sameSummary(sumL, sumR))
	}
	decsL, errL := local.SubmitBatch(batch)
	decsR, errR := remote.SubmitBatch(batch)
	same("SubmitBatch", decsL, decsR, errL == nil && errR == nil && slices.Equal(decsL, decsR))

	deltaL, _, _ := local.RelaySince(0)
	deltaR, ok, err := remote.RelaySince(0)
	same("RelaySince", deltaL, deltaR, err == nil && ok && len(deltaR.Events) > len(mt.Tasks) &&
		deltaL.From == deltaR.From && deltaL.To == deltaR.To && deltaL.Resync == deltaR.Resync &&
		slices.Equal(deltaL.Events, deltaR.Events))
	want := len(mt.Tasks) - (len(mt.Tasks)-4)/4
	same("in flight", core.InFlight(), m.Core().InFlight(), core.InFlight() == want && m.Core().InFlight() == want)
	// A stale-term refusal is a delivered answer: no transport sentinel,
	// and the connection stays.
	if err := remote.Fence(2); err == nil || errors.Is(err, ErrUnreachable) || errors.Is(err, ErrUncertain) {
		t.Errorf("Fence below the watermark: %v, want a refusal without a transport sentinel", err)
	}
	if _, err := remote.Summary(); err != nil {
		t.Errorf("Summary after the refusal: %v", err)
	}
}

// TestRemoteUsesOneConnection: all thirteen member calls, from four
// goroutines released at once on a fresh handle, share one TCP
// connection to the member.
func TestRemoteUsesOneConnection(t *testing.T) {
	m := startMember(t)
	tap := newWireTap(t, m.Addr())
	r := NewRemote("m", tap.Addr(), 5*time.Second)
	defer r.Close()
	spec := task.WasteCPU(200)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			check := func(what string, err error) {
				if err != nil {
					t.Errorf("goroutine %d: %s: %v", g, what, err)
				}
			}
			extra := fmt.Sprintf("extra-%d", g)
			check("AddServer", r.AddServer("artimon"))
			check("AddServer", r.AddServer(extra))
			check("RemoveServer", r.RemoveServer(extra))
			_, err := r.CanSolve(spec)
			check("CanSolve", err)
			check("Fence", r.Fence(1))
			_, _, err = r.Partition()
			check("Partition", err)
			rq := req(10*g, spec, float64(g))
			cand, err := r.Evaluate(rq)
			check("Evaluate", err)
			_, err = r.Commit(rq, cand.Server)
			check("Commit", err)
			_, err = r.Submit(req(10*g+1, spec, float64(g)))
			check("Submit", err)
			_, err = r.SubmitBatch([]agent.Request{req(10*g+2, spec, float64(g)), req(10*g+3, spec, float64(g))})
			check("SubmitBatch", err)
			check("Complete", r.Complete(10*g, cand.Server, 50))
			check("Report", r.Report("artimon", 0.5, float64(g)))
			_, err = r.Summary()
			check("Summary", err)
			_, _, err = r.RelaySince(0)
			check("RelaySince", err)
		}(g)
	}
	close(start)
	wg.Wait()
	if got := m.Core().InFlight(); got != 12 {
		t.Errorf("member holds %d jobs in flight, want 12: not every call arrived", got)
	}
	if got := tap.accepted.Load(); got != 1 {
		t.Errorf("the Remote opened %d connections to its member, want exactly 1", got)
	}
}

// TestRemoteUnreachableBeforeFirstFrame pins the fallback-safe half of
// the error taxonomy over frames: a refused dial and a refused
// handshake both fail before any request frame was written, so they
// wrap plain ErrUnreachable — a commit may fall back to another member —
// and a member on another frame version is named as such, with both
// versions, not reported as a dead peer.
func TestRemoteUnreachableBeforeFirstFrame(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := lis.Addr().String()
	lis.Close()
	r := NewRemote("gone", closed, time.Second)
	_, err = r.StartCommit(req(1, task.WasteCPU(200), 0), "artimon").Wait()
	if !errors.Is(err, ErrUnreachable) || errors.Is(err, ErrUncertain) {
		t.Fatalf("commit on a refused dial: %v, want plain ErrUnreachable", err)
	}

	lis, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() { // a member one frame version ahead
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			var hs [6]byte
			io.ReadFull(conn, hs[:])
			hs[5]++
			conn.Write(hs[:])
			conn.Close()
		}
	}()
	r = NewRemote("ahead", lis.Addr().String(), time.Second)
	want := fmt.Sprintf("member speaks frame v%d, dispatcher v%d", live.FrameVersion+1, live.FrameVersion)
	for _, call := range []func() error{
		func() error { return r.AddServer("artimon") },
		func() error { _, err := r.Summary(); return err },
		func() error { _, err := r.Commit(req(1, task.WasteCPU(200), 0), "artimon"); return err },
	} {
		err := call()
		if !errors.Is(err, ErrUnreachable) || errors.Is(err, ErrUncertain) || !strings.Contains(err.Error(), want) {
			t.Fatalf("call on a member of another frame version: %v, want plain ErrUnreachable naming %q", err, want)
		}
	}
}

// TestRemoteWireStats pins the member wire's per-call counters: a frame
// per call, the payload bytes each way and a round trip each, reported
// through Dispatcher.Members and kept across a redial.
func TestRemoteWireStats(t *testing.T) {
	m := startMember(t)
	r := NewRemote("m", m.Addr(), 5*time.Second)
	d, err := NewWithMembers(Config{Heuristic: "HMCT", Seed: 7, StaleAfter: time.Hour, SummaryInterval: time.Hour}, []Member{r})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	spec := task.Synthetic(0, 4)
	for i := 0; i < 4; i++ {
		if err := d.AddServer(fmt.Sprintf("sv%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	d.RefreshSummaries()
	const n = 5
	for i := 0; i < n; i++ {
		dec, err := d.Submit(req(i, spec, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Complete(i, dec.Server, float64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	w := d.Members()[0].Wire
	for _, c := range []struct {
		op     string
		got    WireOp
		frames uint64
	}{{"Evaluate", w.Evaluate, n}, {"Commit", w.Commit, n}, {"Complete", w.Complete, n}, {"Summary", w.Summary, 1}} {
		if c.got.Frames != c.frames || c.got.RTT <= 0 || c.got.BytesOut%c.frames != 0 {
			t.Errorf("%s: %+v, want %d frames of one size and a round trip", c.op, c.got, c.frames)
		}
	}
	if w.Relay != (WireOp{}) {
		t.Errorf("Relay: %+v, want no traffic with the relay off", w.Relay)
	}
	// A commit names its server on top of the task an evaluation carries;
	// a completion is answered by an empty reply.
	if w.Commit.BytesOut <= w.Evaluate.BytesOut || w.Evaluate.BytesIn == 0 || w.Complete.BytesIn != 0 {
		t.Errorf("payload bytes: evaluate %+v, commit %+v, complete %+v", w.Evaluate, w.Commit, w.Complete)
	}
	r.Close()
	if got := r.WireStats(); got != w {
		t.Errorf("after the connection closed: %+v, want %+v", got, w)
	}
	if _, err := r.Evaluate(req(n, spec, n)); err != nil {
		t.Fatal(err)
	}
	if got := r.WireStats().Evaluate.Frames; got != n+1 {
		t.Errorf("%d Evaluate frames after a redial, want %d", got, n+1)
	}
}
