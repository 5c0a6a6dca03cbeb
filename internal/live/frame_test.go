package live

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/sched"
	"casched/internal/task"
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
	// capability information.
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

}

// With negotiation gone, a peer on another frame version must not look
// like a dead one. Both directions, each against a scripted peer: a
// member answers a dispatcher of any other version with its own
// preamble before closing, and a dispatcher that reads a preamble of
// another version fails naming both.
func TestFrameVersionMismatch(t *testing.T) {
	a := startTestAgent(t)
	defer a.Close()
	for _, version := range []byte{FrameVersion - 1, FrameVersion + 1, 0} {
		old, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hs := frameHandshake
		hs[len(hs)-1] = version
		old.Write(hs[:])
		old.SetReadDeadline(time.Now().Add(2 * time.Second))
		var answer [len(frameHandshake)]byte
		if _, err := io.ReadFull(old, answer[:]); err != nil || answer != frameHandshake {
			t.Errorf("version %d dispatcher: member answered %v, %v; want its own preamble %v", version, answer, err, frameHandshake)
		}
		// … and serves nothing on that connection.
		old.Write(endFrame(beginFrame(nil, msgSummary, 1), 0))
		if n, err := old.Read(answer[:]); err == nil {
			t.Errorf("version %d dispatcher: member served %d bytes after the mismatch", version, n)
		}
		old.Close()
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() { // a member one version behind
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hs [len(frameHandshake)]byte
		io.ReadFull(conn, hs[:])
		hs[len(hs)-1] = FrameVersion - 1
		conn.Write(hs[:])
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewFrameClient(conn, 2*time.Second)
	want := fmt.Sprintf("member speaks frame v%d, dispatcher v%d", FrameVersion-1, FrameVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("handshake against an older member: %v, want an error naming both versions (%q)", err, want)
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

// The framed client must see exactly what the member's core answers:
// the reference for the wire is the core itself. All thirteen calls
// cross it here, each checked against the core read in place.
func TestFramedAgainstLiveAgent(t *testing.T) {
	a := startTestAgent(t)
	defer a.Close()
	core := a.Core()
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	framed, err := NewFrameClient(conn, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer framed.Close()

	// Membership: AddServer, RemoveServer, Partition, CanSolve.
	for _, name := range []string{"artimon", "valette", "soyotte"} {
		if err := framed.AddServer(name); err != nil {
			t.Fatalf("AddServer(%s): %v", name, err)
		}
	}
	if err := framed.RemoveServer("soyotte"); err != nil {
		t.Fatal(err)
	}
	part, err := framed.Partition()
	if err != nil || !slices.Equal(part, core.Servers()) || len(part) != 2 {
		t.Fatalf("Partition = %v, %v; the core holds %v", part, err, core.Servers())
	}
	spec, err := task.Resolve("wastecpu", 200)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := framed.CanSolve("wastecpu", 200); err != nil || ok != core.CanSolve(spec) || !ok {
		t.Fatalf("CanSolve = %v, %v; the core says %v", ok, err, core.CanSolve(spec))
	}
	if _, err := framed.CanSolve("no-such-problem", 0); !isWireError(err) {
		t.Fatalf("CanSolve of an unknown problem: %T (%v), want WireError", err, err)
	}
	if err := framed.Report("artimon", 0.5, 1); err != nil {
		t.Fatalf("Report: %v", err)
	}

	// Evaluate, then Commit what it named; the summary is the core's.
	args := MemberTaskArgs{JobID: 1, TaskID: 1, Problem: "wastecpu", Variant: 200, Arrival: 0}
	want, err := core.Evaluate(agent.Request{JobID: 1, TaskID: 1, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	gotEval, err := framed.Evaluate(&args)
	if err != nil {
		t.Fatal(err)
	}
	if gotEval != (MemberEvalReply{Server: want.Server, Score: want.Score, Tie: want.Tie, Scored: want.Scored}) {
		t.Fatalf("framed Evaluate %+v, the core evaluates %+v", gotEval, want)
	}
	dec, err := framed.Commit(&MemberCommitArgs{Task: args, Server: gotEval.Server})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := core.Prediction(1); dec.Server != gotEval.Server || dec.Predicted != p || dec.HasPrediction != ok {
		t.Fatalf("framed Commit %+v; the core predicts %v, %v on %s", dec, p, ok, gotEval.Server)
	}
	gotSum, err := framed.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if wantSum := MemberSummaryReply(core.LoadSummary()); !reflect.DeepEqual(gotSum, wantSum) || gotSum.InFlight != 1 {
		t.Fatalf("framed Summary %+v, the core's %+v", gotSum, wantSum)
	}

	// Submit and SubmitBatch delegate whole decisions; Relay replays all
	// four placements; Complete retires them one by one. A completion
	// the member does not know is acknowledged.
	args2 := MemberTaskArgs{JobID: 2, TaskID: 2, Problem: "wastecpu", Variant: 200, Arrival: 1}
	dec2, err := framed.Submit(&args2)
	if err != nil || dec2.Server == "" {
		t.Fatalf("framed Submit: %+v, %v", dec2, err)
	}
	args3, args4 := args2, args2
	args3.JobID, args3.TaskID, args4.JobID, args4.TaskID = 3, 3, 4, 4
	brep, err := framed.SubmitBatch(&MemberBatchArgs{Tasks: []MemberTaskArgs{args3, args4}})
	if err != nil || brep.Error != "" || len(brep.Decisions) != 2 {
		t.Fatalf("framed SubmitBatch: %+v, %v", brep, err)
	}
	rrep, err := framed.Relay(&MemberRelayArgs{})
	if err != nil || rrep.Disabled || len(rrep.Events) != 4 {
		t.Fatalf("framed Relay: %+v, %v; want the four decisions", rrep, err)
	}
	servers := []string{dec.Server, dec2.Server, brep.Decisions[0].Server, brep.Decisions[1].Server}
	for i, server := range servers {
		if err := framed.Complete(&TaskDoneArgs{TaskKey: i + 1, Server: server, At: 50 + float64(i)}); err != nil {
			t.Fatalf("framed Complete %d: %v", i+1, err)
		}
		if got := core.InFlight(); got != len(servers)-1-i {
			t.Fatalf("in flight after %d completions = %d", i+1, got)
		}
	}
	if err := framed.Complete(&TaskDoneArgs{TaskKey: 99, Server: "nowhere", At: 61}); err != nil {
		t.Fatalf("unknown completion: %v", err)
	}

	// Application errors are delivered answers (WireError) that keep the
	// connection: an unknown problem, and a term below the fence.
	badTask := MemberTaskArgs{JobID: 5, TaskID: 5, Problem: "no-such-problem"}
	if _, err := framed.Submit(&badTask); !isWireError(err) {
		t.Fatalf("framed app error is %T (%v), want WireError", err, err)
	}
	if err := framed.Fence(7); err != nil {
		t.Fatalf("Fence(7): %v", err)
	}
	if err := framed.Fence(6); !isWireError(err) || !strings.Contains(err.Error(), "stale leader term") {
		t.Fatalf("Fence below the watermark: %T (%v), want the stale-term refusal as a WireError", err, err)
	}
	stale := args2
	stale.JobID, stale.TaskID, stale.Term = 6, 6, 6
	if _, err := framed.Submit(&stale); !isWireError(err) {
		t.Fatalf("Submit at a stale term: %T (%v), want WireError", err, err)
	}
	if _, err := framed.Summary(); err != nil {
		t.Fatalf("the connection did not survive delivered errors: %v", err)
	}
}

func isWireError(err error) bool {
	var we WireError
	return errors.As(err, &we)
}

// testHandler is a frame handler over a bare core: the server half of a
// framed connection without the connection.
func testHandler(t testing.TB) *frameHandler {
	t.Helper()
	core, err := agent.New(agent.Config{Scheduler: sched.NewHMCT(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return &frameHandler{a: &Agent{core: core}, in: make(intern)}
}

// The six calls that joined the framed wire in version 3, as the client
// encodes them (payloads restated here on purpose: this is the wire
// format the table in frame.go documents).
var coldRequests = []struct {
	name    string
	typ     byte
	payload func([]byte) []byte
}{
	{"CanSolve", msgCanSolve, func(b []byte) []byte { return appendI64(appendStr(b, "wastecpu"), 200) }},
	{"AddServer", msgAddServer, func(b []byte) []byte { return appendStr(b, "artimon") }},
	{"RemoveServer", msgRemoveServer, func(b []byte) []byte { return appendStr(b, "artimon") }},
	{"Report", msgReport, func(b []byte) []byte { return appendF64(appendF64(appendStr(b, "artimon"), 0.5), 3) }},
	{"Fence", msgFence, func(b []byte) []byte { return appendU64(b, 4) }},
	{"Partition", msgPartition, func(b []byte) []byte { return b }},
}

// Each of them round-trips through the handler — the request decodes,
// the core is driven, the reply frame carries the request's type and
// correlation ID — and a payload cut short or followed by garbage is a
// protocol error that tears the connection down, not an answer.
func TestFrameColdCallsRoundTripAndMalformed(t *testing.T) {
	h := testHandler(t)
	h.a.core.AddServer("valette")
	for i, c := range coldRequests {
		payload := c.payload(nil)
		out, err := h.handle(nil, c.typ, uint64(i), payload)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var buf []byte
		typ, corr, reply, err := readFrame(bytes.NewReader(out), &buf)
		if err != nil || typ != c.typ|msgReplyBit || corr != uint64(i) {
			t.Fatalf("%s reply frame = (%#x, %d, %v), want (%#x, %d)", c.name, typ, corr, err, c.typ|msgReplyBit, i)
		}
		r := wireReader{buf: reply}
		switch c.typ {
		case msgCanSolve:
			if ok := r.boolv(); !ok || !r.done() {
				t.Errorf("CanSolve reply = %v (done %v), want true", ok, r.done())
			}
		case msgPartition:
			if got := r.strs(); !r.done() || !slices.Equal(got, h.a.core.Servers()) {
				t.Errorf("Partition reply = %v, the core holds %v", got, h.a.core.Servers())
			}
		default:
			if !r.done() {
				t.Errorf("%s reply carries %d payload bytes, want none", c.name, len(reply))
			}
		}
		if c.typ == msgAddServer && !slices.Contains(h.a.core.Servers(), "artimon") {
			t.Error("AddServer did not reach the core")
		}
		if c.typ == msgRemoveServer && slices.Contains(h.a.core.Servers(), "artimon") {
			t.Error("RemoveServer did not reach the core")
		}
		if c.typ == msgFence && h.a.admitTerm(3) == nil {
			t.Error("Fence did not raise the watermark")
		}

		if _, err := h.handle(nil, c.typ, 0, append(payload[:len(payload):len(payload)], 0)); err == nil {
			t.Errorf("%s: trailing garbage accepted", c.name)
		}
		if len(payload) > 0 {
			if _, err := h.handle(nil, c.typ, 0, payload[:len(payload)-1]); err == nil {
				t.Errorf("%s: payload cut short accepted", c.name)
			}
		}
	}
	if _, err := h.handle(nil, msgPartition+1, 0, nil); err == nil {
		t.Error("unknown message type accepted")
	}
}

// Frame scratch is bounded: after one 1 MiB SubmitBatch frame — answered
// by an error frame as large, since the member quotes the problem name
// it does not know — and one small frame, neither end holds a buffer
// past maxFrameScratch.
func TestFrameScratchBounded(t *testing.T) {
	a := startTestAgent(t)
	defer a.Close()
	big := MemberBatchArgs{Tasks: []MemberTaskArgs{{JobID: 1, TaskID: 1, Problem: strings.Repeat("x", 1<<20)}}}

	// Server side, on a handler of its own so the buffers can be read.
	h := frameHandler{a: a, in: make(intern)}
	var in, out bytes.Buffer
	in.Write(endFrame(appendMemberBatchArgs(beginFrame(nil, msgSubmitBatch, 1), &big), 0))
	in.Write(endFrame(beginFrame(nil, msgSummary, 2), 0))
	if err := h.serveFrame(&in, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() < 1<<20 {
		t.Fatalf("the big frame was answered in %d bytes: the reply buffer never grew", out.Len())
	}
	if err := h.serveFrame(&in, &out); err != nil {
		t.Fatal(err)
	}
	if cap(h.rbuf) > maxFrameScratch || cap(h.wbuf) > maxFrameScratch {
		t.Errorf("server scratch after a 1 MiB frame: read %d, write %d bytes; want at most %d", cap(h.rbuf), cap(h.wbuf), maxFrameScratch)
	}

	// Client side, over a real connection.
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFrameClient(conn, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SubmitBatch(&big); !isWireError(err) || len(err.Error()) < 1<<20 {
		t.Fatalf("big batch: %T, want the member's 1 MiB refusal", err)
	}
	if _, err := c.Summary(); err != nil {
		t.Fatal(err)
	}
	c.wmu.Lock()
	wcap := cap(c.wbuf)
	c.wmu.Unlock()
	if wcap > maxFrameScratch {
		t.Errorf("client write scratch after a 1 MiB frame: %d bytes; want at most %d", wcap, maxFrameScratch)
	}
	// The reader's scratch is its loop's own; the same step on a buffer
	// the test can see, fed the member's two replies from above.
	var rbuf []byte
	for out.Len() > 0 {
		if err := c.readReply(&out, &rbuf); err != nil {
			t.Fatal(err)
		}
	}
	if cap(rbuf) > maxFrameScratch {
		t.Errorf("client read scratch after a 1 MiB frame: %d bytes; want at most %d", cap(rbuf), maxFrameScratch)
	}
	call := c.getCall()
	call.payload = make([]byte, 1<<20)
	c.putCall(call)
	if cap(call.payload) > maxFrameScratch {
		t.Errorf("a pooled call slot keeps a %d byte payload buffer", cap(call.payload))
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
	// The version 3 messages: one valid frame each, the same frame cut
	// short of its length prefix, and a well-formed frame whose payload
	// is cut (Partition has no request payload to cut: its reply is).
	for _, c := range coldRequests {
		valid := seed(c.typ, c.payload)
		if c.typ == msgPartition {
			valid = seed(c.typ|msgReplyBit, func(b []byte) []byte { return appendStrs(b, []string{"artimon", "valette"}) })
		}
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
		f.Add(seed(valid[4], func(b []byte) []byte { return append(b, valid[4+frameMinLen:len(valid)-1]...) }))
	}
	f.Add(seed(msgCanSolve|msgReplyBit, func(b []byte) []byte { return appendBool(b, true) }))
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
			// The version 3 payloads are decoded field by field where
			// they are used (frameHandler.handle, the FrameClient calls);
			// the same sequences here.
			switch typ {
			case msgCanSolve:
				r.str()
				r.i64()
			case msgCanSolve | msgReplyBit:
				r.boolv()
			case msgAddServer, msgRemoveServer:
				r.str()
			case msgReport:
				r.str()
				r.f64()
				r.f64()
			case msgFence:
				r.u64()
			case msgPartition | msgReplyBit:
				r.strs()
			}
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
