package live

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"reflect"
	"testing"
	"time"

	"casched/internal/sched"
)

// frameRoundTrip encodes a payload, wraps it in a frame, reads the
// frame back and returns a reader over the payload.
func frameRoundTrip(t *testing.T, typ byte, corr uint64, enc func([]byte) []byte) *wireReader {
	t.Helper()
	b := beginFrame(nil, typ, corr)
	b = enc(b)
	b = endFrame(b, 0)
	var buf []byte
	gotTyp, gotCorr, payload, err := readFrame(bytes.NewReader(b), &buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if gotTyp != typ || gotCorr != corr {
		t.Fatalf("frame header = (%#x, %d), want (%#x, %d)", gotTyp, gotCorr, typ, corr)
	}
	return &wireReader{buf: payload, in: make(intern)}
}

func TestFrameTaskArgsRoundTrip(t *testing.T) {
	in := MemberTaskArgs{
		JobID: -9, TaskID: 9, Attempt: 2, Problem: "wastecpu", Variant: 200,
		Arrival: 12.5, Submitted: 12, Tenant: "gold", Deadline: 99.25, Term: 7,
	}
	r := frameRoundTrip(t, msgSubmit, 42, func(b []byte) []byte { return appendMemberTaskArgs(b, &in) })
	var out MemberTaskArgs
	r.memberTaskArgs(&out)
	if !r.done() {
		t.Fatalf("trailing bytes after decode")
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestFrameCommitAndRepliesRoundTrip(t *testing.T) {
	commit := MemberCommitArgs{
		Task:   MemberTaskArgs{JobID: 3, TaskID: 3, Problem: "matmul", Variant: 100, Arrival: 1.5},
		Server: "artimon",
	}
	r := frameRoundTrip(t, msgCommit, 1, func(b []byte) []byte { return appendMemberCommitArgs(b, &commit) })
	var gotCommit MemberCommitArgs
	r.memberCommitArgs(&gotCommit)
	if !r.done() || gotCommit != commit {
		t.Fatalf("commit round trip: %+v", gotCommit)
	}

	eval := MemberEvalReply{Server: "valette", Score: 3.5, Tie: 4.5, Scored: true, DeadlineUnmet: true}
	r = frameRoundTrip(t, msgEvaluate|msgReplyBit, 2, func(b []byte) []byte { return appendMemberEvalReply(b, &eval) })
	var gotEval MemberEvalReply
	r.memberEvalReply(&gotEval)
	if !r.done() || gotEval != eval {
		t.Fatalf("eval reply round trip: %+v", gotEval)
	}

	done := TaskDoneArgs{TaskKey: -4, Server: "artimon", At: 17.25}
	r = frameRoundTrip(t, msgComplete, 9, func(b []byte) []byte { return appendTaskDoneArgs(b, &done) })
	var gotDone TaskDoneArgs
	r.taskDoneArgs(&gotDone)
	if !r.done() || gotDone != done {
		t.Fatalf("complete args round trip: %+v", gotDone)
	}

	dec := MemberDecisionReply{Server: "soyotte", Predicted: 8.75, HasPrediction: true, Unschedulable: true}
	r = frameRoundTrip(t, msgSubmit|msgReplyBit, 3, func(b []byte) []byte { return appendMemberDecisionReply(b, &dec) })
	var gotDec MemberDecisionReply
	r.memberDecisionReply(&gotDec)
	if !r.done() || gotDec != dec {
		t.Fatalf("decision reply round trip: %+v", gotDec)
	}
}

func TestFrameBatchSummaryRelayRoundTrip(t *testing.T) {
	batch := MemberBatchArgs{Tasks: []MemberTaskArgs{
		{JobID: 1, TaskID: 1, Problem: "wastecpu", Variant: 400, Arrival: 2},
		{JobID: 2, TaskID: 2, Problem: "wastecpu", Variant: 400, Arrival: 2, Tenant: "t"},
	}}
	r := frameRoundTrip(t, msgSubmitBatch, 4, func(b []byte) []byte { return appendMemberBatchArgs(b, &batch) })
	var gotBatch MemberBatchArgs
	r.memberBatchArgs(&gotBatch)
	if !r.done() || !reflect.DeepEqual(gotBatch, batch) {
		t.Fatalf("batch args round trip: %+v", gotBatch)
	}

	brep := MemberBatchReply{
		Decisions: []MemberDecisionReply{{Server: "m1", Predicted: 1, HasPrediction: true}, {}},
		Error:     "batch job 2: boom",
	}
	r = frameRoundTrip(t, msgSubmitBatch|msgReplyBit, 5, func(b []byte) []byte { return appendMemberBatchReply(b, &brep) })
	var gotBrep MemberBatchReply
	r.memberBatchReply(&gotBrep)
	if !r.done() || !reflect.DeepEqual(gotBrep, brep) {
		t.Fatalf("batch reply round trip: %+v", gotBrep)
	}

	sum := MemberSummaryReply{
		InFlight: 7, Servers: 3, MinReady: 12.5, HasMinReady: true,
		TenantInFlight: map[string]int{"gold": 4, "free": 1},
		ServerReady:    map[string]float64{"m1": 10, "m2": 12.5},
		RelaySeq:       99, HasRelay: true,
	}
	r = frameRoundTrip(t, msgSummary|msgReplyBit, 6, func(b []byte) []byte { return appendMemberSummaryReply(b, &sum) })
	var gotSum MemberSummaryReply
	r.memberSummaryReply(&gotSum)
	if !r.done() || !reflect.DeepEqual(gotSum, sum) {
		t.Fatalf("summary round trip: %+v", gotSum)
	}
	// Nil maps must survive as nil — the dispatcher reads absence as
	// capability information, matching the gob contract.
	empty := MemberSummaryReply{InFlight: 1}
	r = frameRoundTrip(t, msgSummary|msgReplyBit, 7, func(b []byte) []byte { return appendMemberSummaryReply(b, &empty) })
	var gotEmpty MemberSummaryReply
	r.memberSummaryReply(&gotEmpty)
	if !r.done() || gotEmpty.TenantInFlight != nil || gotEmpty.ServerReady != nil {
		t.Fatalf("nil maps did not survive: %+v", gotEmpty)
	}

	rrep := MemberRelayReply{
		Events: []RelayEvent{
			{Seq: 1, Kind: 1, JobID: 10, Tenant: "gold", Server: "m1", Time: 3, Ready: 7.5, HasReady: true},
			{Seq: 2, Kind: 2, JobID: 10, Server: "m1", Time: 9},
		},
		From: 0, To: 2, Resync: true,
	}
	r = frameRoundTrip(t, msgRelay|msgReplyBit, 8, func(b []byte) []byte { return appendMemberRelayReply(b, &rrep) })
	var gotRrep MemberRelayReply
	r.memberRelayReply(&gotRrep)
	if !r.done() || !reflect.DeepEqual(gotRrep, rrep) {
		t.Fatalf("relay reply round trip: %+v", gotRrep)
	}
}

// Truncated and oversized frames must error, never block forever or
// over-read.
func TestFrameDecodeRejectsMalformed(t *testing.T) {
	var buf []byte
	// Length below the minimum body.
	if _, _, _, err := readFrame(bytes.NewReader([]byte{8, 0, 0, 0, 1}), &buf); err == nil {
		t.Fatal("undersized frame length accepted")
	}
	// Length above the cap.
	if _, _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0xFF, 1}), &buf); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	// Truncated body.
	if _, _, _, err := readFrame(bytes.NewReader([]byte{9, 0, 0, 0, 1, 2}), &buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// A short string length inside a payload must fail the reader, not
	// panic or read past the buffer.
	r := wireReader{buf: []byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'}}
	if s := r.str(); s != "" || !r.bad {
		t.Fatalf("oversized string length: got %q, bad=%v", s, r.bad)
	}
}

// A garbage handshake must close the connection without a reply frame;
// a valid one is echoed.
func TestFramedHandshake(t *testing.T) {
	a := startTestAgent(t)
	defer a.Close()

	bad, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.Write([]byte{frameSentinel, 'n', 'o', 'p', 'e', 9})
	bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	var one [1]byte
	if n, err := bad.Read(one[:]); err == nil {
		t.Fatalf("agent answered %d bytes to a garbage handshake", n)
	}

	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFrameClient(conn, 2*time.Second)
	if err != nil {
		t.Fatalf("valid handshake rejected: %v", err)
	}
	fc.Close()

	// A version 1 dispatcher sends only messages version 2 still serves:
	// its handshake is accepted and echoed as sent. A version from the
	// future is refused.
	for _, c := range []struct {
		version byte
		ok      bool
	}{{1, true}, {FrameVersion + 1, false}, {0, false}} {
		old, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hs := frameHandshake
		hs[len(hs)-1] = c.version
		old.Write(hs[:])
		old.SetReadDeadline(time.Now().Add(2 * time.Second))
		var echo [len(frameHandshake)]byte
		_, err = io.ReadFull(old, echo[:])
		if c.ok && (err != nil || echo != hs) {
			t.Errorf("version %d handshake: echo %v, err %v", c.version, echo, err)
		}
		if !c.ok && err == nil {
			t.Errorf("version %d handshake accepted", c.version)
		}
		old.Close()
	}
}

func startTestAgent(t *testing.T) *Agent {
	t.Helper()
	s, err := sched.ByName("HMCT")
	if err != nil {
		t.Fatal(err)
	}
	a, err := StartAgent(AgentConfig{Scheduler: s, Clock: NewClock(0), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The framed client and the legacy gob client must see identical
// answers from the same member — the framing changes the transport,
// not one bit of the decision.
func TestFramedMatchesGobAgainstLiveAgent(t *testing.T) {
	a := startTestAgent(t)
	defer a.Close()
	a.Engine().AddServer("artimon")
	a.Engine().AddServer("valette")

	gob, err := rpc.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer gob.Close()
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	framed, err := NewFrameClient(conn, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer framed.Close()

	var caps MemberWireCapsReply
	if err := gob.Call("Member.WireCaps", Ack{}, &caps); err != nil {
		t.Fatalf("WireCaps: %v", err)
	}
	if caps.FrameVersion != FrameVersion {
		t.Fatalf("WireCaps = %d, want %d", caps.FrameVersion, FrameVersion)
	}

	task := MemberTaskArgs{JobID: 1, TaskID: 1, Problem: "wastecpu", Variant: 200, Arrival: 0}
	var wantEval MemberEvalReply
	if err := gob.Call("Member.Evaluate", task, &wantEval); err != nil {
		t.Fatal(err)
	}
	gotEval, err := framed.Evaluate(&task)
	if err != nil {
		t.Fatal(err)
	}
	if gotEval != wantEval {
		t.Fatalf("framed Evaluate %+v != gob %+v", gotEval, wantEval)
	}

	// Commit through the framed wire, then check both protocols read
	// the same summary.
	dec, err := framed.Commit(&MemberCommitArgs{Task: task, Server: gotEval.Server})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Server != gotEval.Server {
		t.Fatalf("framed Commit placed on %q, want %q", dec.Server, gotEval.Server)
	}
	var wantSum MemberSummaryReply
	if err := gob.Call("Member.Summary", Ack{}, &wantSum); err != nil {
		t.Fatal(err)
	}
	gotSum, err := framed.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if gotSum.InFlight != wantSum.InFlight || gotSum.Servers != wantSum.Servers ||
		gotSum.MinReady != wantSum.MinReady || gotSum.HasMinReady != wantSum.HasMinReady {
		t.Fatalf("framed Summary %+v != gob %+v", gotSum, wantSum)
	}

	// Complete over either wire retires a job the same way: commit a
	// second job over gob, complete one per protocol, and the member is
	// idle again. A completion the member does not know is acknowledged
	// on both.
	task2 := MemberTaskArgs{JobID: 2, TaskID: 2, Problem: "wastecpu", Variant: 200, Arrival: 1}
	var dec2 MemberDecisionReply
	if err := gob.Call("Member.Commit", MemberCommitArgs{Task: task2, Server: dec.Server}, &dec2); err != nil {
		t.Fatal(err)
	}
	if err := framed.Complete(&TaskDoneArgs{TaskKey: 1, Server: dec.Server, At: 50}); err != nil {
		t.Fatalf("framed Complete: %v", err)
	}
	if got := a.Core().InFlight(); got != 1 {
		t.Fatalf("in flight after framed Complete = %d, want 1", got)
	}
	if err := gob.Call("Member.Complete", TaskDoneArgs{TaskKey: 2, Server: dec2.Server, At: 60}, &Ack{}); err != nil {
		t.Fatal(err)
	}
	if got := a.Core().InFlight(); got != 0 {
		t.Fatalf("in flight after gob Complete = %d, want 0", got)
	}
	errGob := gob.Call("Member.Complete", TaskDoneArgs{TaskKey: 99, Server: "nowhere", At: 61}, &Ack{})
	errFramed := framed.Complete(&TaskDoneArgs{TaskKey: 99, Server: "nowhere", At: 61})
	if errGob != nil || errFramed != nil {
		t.Fatalf("unknown completion: gob %v, framed %v", errGob, errFramed)
	}

	// An unknown problem is an application error: delivered as a
	// WireError, mirroring rpc.ServerError on the gob side.
	badTask := MemberTaskArgs{JobID: 3, TaskID: 3, Problem: "no-such-problem"}
	if _, err := framed.Submit(&badTask); err == nil {
		t.Fatal("framed Submit of unknown problem succeeded")
	} else if _, ok := err.(WireError); !ok {
		t.Fatalf("framed app error is %T (%v), want WireError", err, err)
	}
}

// FuzzFrameDecode drives the full server-side decode surface with
// arbitrary bytes: the frame reader and every payload decoder must
// reject garbage with an error — never panic, never read out of
// bounds, never allocate unboundedly.
func FuzzFrameDecode(f *testing.F) {
	// Seed with one valid frame per message type.
	task := MemberTaskArgs{JobID: 1, TaskID: 1, Problem: "wastecpu", Variant: 200, Arrival: 1.5, Tenant: "t"}
	seed := func(typ byte, enc func([]byte) []byte) []byte {
		b := beginFrame(nil, typ, 7)
		b = enc(b)
		return endFrame(b, 0)
	}
	f.Add(seed(msgEvaluate, func(b []byte) []byte { return appendMemberTaskArgs(b, &task) }))
	f.Add(seed(msgCommit, func(b []byte) []byte {
		return appendMemberCommitArgs(b, &MemberCommitArgs{Task: task, Server: "m1"})
	}))
	f.Add(seed(msgSubmit, func(b []byte) []byte { return appendMemberTaskArgs(b, &task) }))
	f.Add(seed(msgSubmitBatch, func(b []byte) []byte {
		return appendMemberBatchArgs(b, &MemberBatchArgs{Tasks: []MemberTaskArgs{task, task}})
	}))
	f.Add(seed(msgSummary, func(b []byte) []byte { return b }))
	f.Add(seed(msgRelay, func(b []byte) []byte { return appendMemberRelayArgs(b, &MemberRelayArgs{Since: 3}) }))
	f.Add(seed(msgSummary|msgReplyBit, func(b []byte) []byte {
		return appendMemberSummaryReply(b, &MemberSummaryReply{
			InFlight: 1, TenantInFlight: map[string]int{"a": 1}, ServerReady: map[string]float64{"m": 2},
		})
	}))
	complete := seed(msgComplete, func(b []byte) []byte {
		return appendTaskDoneArgs(b, &TaskDoneArgs{TaskKey: 5, Server: "m1", At: 2.5})
	})
	f.Add(complete)
	f.Add(complete[:len(complete)-3])               // frame cut short of its length prefix
	f.Add(seed(msgComplete, func(b []byte) []byte { // well-formed frame, payload cut inside At
		return append(b, complete[4+frameMinLen:len(complete)-3]...)
	}))
	f.Add(seed(msgComplete|msgReplyBit, func(b []byte) []byte { return b }))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add([]byte{9, 0, 0, 0, msgError})

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var buf []byte
		in := make(intern)
		for i := 0; i < 16; i++ {
			typ, _, payload, err := readFrame(rd, &buf)
			if err != nil {
				return // malformed or exhausted: rejected cleanly
			}
			r := wireReader{buf: payload, in: in}
			switch typ &^ msgReplyBit {
			case msgEvaluate, msgSubmit:
				if typ&msgReplyBit == 0 {
					var v MemberTaskArgs
					r.memberTaskArgs(&v)
				} else if typ == msgEvaluate|msgReplyBit {
					var v MemberEvalReply
					r.memberEvalReply(&v)
				} else {
					var v MemberDecisionReply
					r.memberDecisionReply(&v)
				}
			case msgCommit:
				if typ&msgReplyBit == 0 {
					var v MemberCommitArgs
					r.memberCommitArgs(&v)
				} else {
					var v MemberDecisionReply
					r.memberDecisionReply(&v)
				}
			case msgSubmitBatch:
				if typ&msgReplyBit == 0 {
					var v MemberBatchArgs
					r.memberBatchArgs(&v)
				} else {
					var v MemberBatchReply
					r.memberBatchReply(&v)
				}
			case msgSummary:
				if typ&msgReplyBit != 0 {
					var v MemberSummaryReply
					r.memberSummaryReply(&v)
				}
			case msgComplete:
				if typ&msgReplyBit == 0 {
					var v TaskDoneArgs
					r.taskDoneArgs(&v)
				}
			case msgRelay:
				if typ&msgReplyBit == 0 {
					var v MemberRelayArgs
					r.memberRelayArgs(&v)
				} else {
					var v MemberRelayReply
					r.memberRelayReply(&v)
				}
			}
			// done() may be false for garbage payloads — that is the
			// rejection path; what matters is that decoding got here
			// without panicking or over-reading.
			_ = r.done()
		}
	})
}

// stalledMember is a framed peer that acknowledges the handshake,
// reports every request frame it reads and answers only when the test
// says so: the member that is alive on the wire but not answering.
type stalledMember struct {
	lis  net.Listener
	got  chan uint64 // correlation IDs, in arrival order
	conn chan net.Conn
}

func startStalledMember(t *testing.T) *stalledMember {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// 64 = frameWindow: the reader never blocks on a test that is not
	// listening.
	s := &stalledMember{lis: lis, got: make(chan uint64, 64), conn: make(chan net.Conn, 1)}
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		var hs [len(frameHandshake)]byte
		if _, err := io.ReadFull(conn, hs[:]); err != nil || hs != frameHandshake {
			conn.Close()
			return
		}
		conn.Write(hs[:])
		s.conn <- conn
		var buf []byte
		for {
			_, corr, _, err := readFrame(conn, &buf)
			if err != nil {
				return
			}
			s.got <- corr
		}
	}()
	return s
}

// answer writes an Evaluate reply naming the correlation ID as server.
func (s *stalledMember) answer(t *testing.T, conn net.Conn, corr uint64) {
	t.Helper()
	b := beginFrame(nil, msgEvaluate|msgReplyBit, corr)
	b = appendMemberEvalReply(b, &MemberEvalReply{Server: fmt.Sprint(corr), Scored: true})
	if _, err := conn.Write(endFrame(b, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestFramedCallTimeout pins the timeout contract the pooled call slots
// must keep: a call against a member that does not answer fails with
// ErrWireTimeout no earlier than the timeout, also on a slot and timer
// that served earlier calls; the late reply is discarded by the reader
// without disturbing later calls; and the abandoned slot is never
// handed to another call.
func TestFramedCallTimeout(t *testing.T) {
	const timeout = 150 * time.Millisecond
	s := startStalledMember(t)
	defer s.lis.Close()
	nc, err := net.Dial("tcp", s.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFrameClient(nc, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := <-s.conn
	defer conn.Close()
	task := MemberTaskArgs{JobID: 1, TaskID: 1, Problem: "wastecpu", Variant: 200}
	slot := func(corr uint64) *frameCall {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.pending[corr]
	}

	// stall issues one call the member reads but never answers in time.
	stall := func() (abandoned *frameCall, corr uint64) {
		t.Helper()
		errc := make(chan error, 1)
		begin := time.Now()
		go func() {
			_, err := c.Evaluate(&task)
			errc <- err
		}()
		select {
		case corr = <-s.got:
		case err := <-errc:
			t.Fatalf("stalled call ended before it reached the member: %v", err)
		}
		abandoned = slot(corr)
		err := <-errc
		if !errors.Is(err, ErrWireTimeout) {
			t.Fatalf("stalled call: %v, want ErrWireTimeout", err)
		}
		if d := time.Since(begin); d < timeout {
			t.Fatalf("stalled call timed out after %v, before its %v budget", d, timeout)
		}
		if slot(corr) != nil || len(c.window) != 0 {
			t.Fatalf("timed-out call left state behind: pending=%v window=%d", slot(corr) != nil, len(c.window))
		}
		return abandoned, corr
	}
	// serve issues calls the member answers at once and returns the slots
	// they used.
	serve := func(n int) (used []*frameCall) {
		t.Helper()
		for i := 0; i < n; i++ {
			type res struct {
				reply MemberEvalReply
				err   error
			}
			resc := make(chan res, 1)
			go func() {
				reply, err := c.Evaluate(&task)
				resc <- res{reply, err}
			}()
			var corr uint64
			select {
			case corr = <-s.got:
			case r := <-resc:
				t.Fatalf("call ended before it reached the member: %+v", r)
			}
			used = append(used, slot(corr))
			s.answer(t, conn, corr)
			if r := <-resc; r.err != nil || r.reply.Server != fmt.Sprint(corr) {
				t.Fatalf("call %d after a timeout: reply %+v, err %v", corr, r.reply, r.err)
			}
		}
		return used
	}

	first, corr := stall()
	if first == nil {
		t.Fatal("the stalled call was never registered")
	}
	s.answer(t, conn, corr) // the late reply: nobody is waiting for it
	for _, u := range serve(8) {
		if u == first {
			t.Fatal("an abandoned call slot was pooled and handed to a later call")
		}
	}
	// A reused slot carries a reused timer: it must again run its full
	// course, not fire on a stale expiry of an earlier call — which a
	// timer left running in the pool would have produced by now.
	time.Sleep(timeout + timeout/4)
	second, corr := stall()
	s.answer(t, conn, corr)
	for _, u := range serve(8) {
		if u == first || u == second {
			t.Fatal("an abandoned call slot was pooled and handed to a later call")
		}
	}
	c.mu.Lock()
	broken := c.broken
	c.mu.Unlock()
	if broken != nil {
		t.Fatalf("late replies tore the connection down: %v", broken)
	}
}
