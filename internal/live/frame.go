package live

// Framed member wire: the versioned, length-prefixed binary protocol
// that carries every call a federation dispatcher makes on a member.
// It is hand-rolled — no reflection, no per-message type dictionaries —
// and carries an explicit correlation ID per frame, so a client keeps a
// sliding window of requests in flight on one connection instead of
// paying a round trip per call, and the member serves that connection
// in the order it was written (frameserver.go).
//
// A framed connection opens with a fixed 6-byte preamble
//
//	[0x00 'C' 'A' 'S' 'F' version]
//
// which each end sends and compares: the member answers its own
// preamble and serves the connection only if the two are identical.
// There is no negotiation. Dispatcher and members upgrade together; a
// mismatch is refused with both versions named ("member speaks frame
// v2, dispatcher v3"), never mistaken for a dead peer. The sentinel
// byte 0x00 is provably not a valid first byte of a gob request stream
// (gob encodes each message with a non-zero uvarint byte count first),
// so the member's listener, which also serves the net/rpc "Agent"
// service to clients and servers, sniffs one byte off an accepted
// connection and routes it; gob bytes are replayed into net/rpc
// untouched.
//
// Every frame is
//
//	[4B LE frameLen][1B msgType][8B LE corrID][payload]
//
// where frameLen covers msgType+corrID+payload (so frameLen >= 9) and
// is capped at 16 MiB. Payload fields are fixed-width little-endian;
// strings are a 4-byte length followed by the bytes. Decoding is
// bounds-checked everywhere and rejects trailing garbage: a malformed
// frame closes the connection, it never panics or over-reads.
//
// The messages (a reply carries the request type with msgReplyBit set;
// msgError answers any request with the error text):
//
//	type  call          request payload             reply payload
//	0x01  Evaluate      MemberTaskArgs              MemberEvalReply
//	0x02  Commit        MemberCommitArgs            MemberDecisionReply
//	0x03  Submit        MemberTaskArgs              MemberDecisionReply
//	0x04  SubmitBatch   count, MemberTaskArgs…      MemberBatchReply
//	0x05  Summary       —                           MemberSummaryReply
//	0x06  Relay         since u64                   MemberRelayReply
//	0x07  Complete      TaskDoneArgs                —
//	0x08  CanSolve      problem str, variant i64    ok bool
//	0x09  AddServer     name str                    —
//	0x0A  RemoveServer  name str                    —
//	0x0B  Report        name str, load, at f64      —
//	0x0C  Fence         term u64                    —
//	0x0D  Partition     —                           count, name str…

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

const (
	// frameSentinel is the first handshake byte. A gob request stream
	// always starts with a non-zero length byte, so 0x00 cannot be
	// mistaken for a net/rpc connection.
	frameSentinel = 0x00
	// FrameVersion is the framed-wire protocol version this binary
	// speaks, the last byte of its preamble. Version 2 added msgComplete,
	// version 3 the six calls that used to ride net/rpc. Both ends must
	// agree exactly.
	FrameVersion = 3

	// maxFrameLen bounds one frame (16 MiB) so a corrupt or hostile
	// length prefix cannot trigger an unbounded allocation.
	maxFrameLen = 16 << 20
	// frameMinLen is msgType+corrID, the smallest legal frame body.
	frameMinLen = 9
	// frameHeaderLen is a frame's bytes before its payload: the length
	// prefix, msgType and corrID.
	frameHeaderLen = 4 + frameMinLen
	// frameReadBuf sizes the buffered reader either end puts on a framed
	// connection: decision frames are ~100 bytes, so a full 64-frame
	// window fits one read; larger frames (summaries, batches) bypass the
	// buffer.
	frameReadBuf = 16 << 10
	// maxFrameScratch bounds the frame scratch either end keeps between
	// frames: a buffer that one large frame (a relay resync, a big
	// SubmitBatch) grew past it is dropped once that frame is handled
	// rather than pinned for the life of the connection.
	maxFrameScratch = 64 << 10

	// Request message types. Replies carry the request type with
	// msgReplyBit set; an application-level failure answers msgError
	// with the error string as payload (a delivered answer, the framed
	// analogue of rpc.ServerError — not a transport failure).
	msgEvaluate     byte = 0x01
	msgCommit       byte = 0x02
	msgSubmit       byte = 0x03
	msgSubmitBatch  byte = 0x04
	msgSummary      byte = 0x05
	msgRelay        byte = 0x06
	msgComplete     byte = 0x07
	msgCanSolve     byte = 0x08
	msgAddServer    byte = 0x09
	msgRemoveServer byte = 0x0A
	msgReport       byte = 0x0B
	msgFence        byte = 0x0C
	msgPartition    byte = 0x0D

	msgReplyBit byte = 0x80
	msgError    byte = 0x7F
)

// frameHandshake is the 6-byte connection preamble each end sends.
var frameHandshake = [6]byte{frameSentinel, 'C', 'A', 'S', 'F', FrameVersion}

// peerFrameVersion returns the version byte of a peer's preamble, or
// false when it is not a framed preamble at all.
func peerFrameVersion(hs [len(frameHandshake)]byte) (byte, bool) {
	v := hs[len(hs)-1]
	hs[len(hs)-1] = FrameVersion
	return v, hs == frameHandshake
}

// WireError is an application-level error delivered over the framed
// wire — the member answered, the call failed. Like rpc.ServerError it
// proves delivery, so callers keep the connection and do not treat it
// as a transport fault.
type WireError string

func (e WireError) Error() string { return string(e) }

// readFrame reads one frame from r, reusing *buf as scratch across
// calls: the length prefix is read into it too, since a local array
// handed to an io.Reader would be moved to the heap on every frame. The
// returned payload aliases *buf and is valid only until the next
// readFrame with the same buffer.
func readFrame(r io.Reader, buf *[]byte) (typ byte, corr uint64, payload []byte, err error) {
	if cap(*buf) < frameMinLen {
		*buf = make([]byte, frameMinLen)
	}
	hdr := (*buf)[:4]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < frameMinLen || n > maxFrameLen {
		return 0, 0, nil, fmt.Errorf("live: frame length %d out of range [%d, %d]", n, frameMinLen, maxFrameLen)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err = io.ReadFull(r, b); err != nil {
		return 0, 0, nil, err
	}
	*buf = b
	return b[0], binary.LittleEndian.Uint64(b[1:frameMinLen]), b[frameMinLen:], nil
}

// beginFrame appends a frame header with a length placeholder;
// endFrame backfills the length. start must be len(b) at beginFrame
// time.
func beginFrame(b []byte, typ byte, corr uint64) []byte {
	b = append(b, 0, 0, 0, 0, typ)
	return binary.LittleEndian.AppendUint64(b, corr)
}

func endFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// trimScratch drops a frame buffer that grew past maxFrameScratch.
func trimScratch(b []byte) []byte {
	if cap(b) > maxFrameScratch {
		return nil
	}
	return b
}

// ---- primitive encoders -------------------------------------------------

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int) []byte    { return appendU64(b, uint64(int64(v))) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

// ---- string interning ---------------------------------------------------

// intern deduplicates the small vocabulary of strings crossing the
// member wire (problem names, tenants, server names), so a steady
// stream of decisions stops allocating string headers once the
// vocabulary is seen. Bounded: past maxIntern entries new strings are
// copied but not retained, so a hostile peer cannot grow it without
// limit. Not safe for concurrent use — one intern per connection.
type intern map[string]string

const maxIntern = 4096

func (in intern) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in[string(b)]; ok { // no alloc: map lookup by []byte key
		return s
	}
	s := string(b)
	if len(in) < maxIntern {
		in[s] = s
	}
	return s
}

// ---- bounds-checked decoder ---------------------------------------------

// wireReader walks a payload with saturating bounds checks: the first
// out-of-bounds read marks the reader bad and every later read returns
// a zero value, so decoders never index past the buffer. A payload is
// accepted only when done() reports full, exact consumption.
type wireReader struct {
	buf []byte
	off int
	bad bool
	in  intern // nil = plain string copies
}

func (r *wireReader) take(n int) []byte {
	if r.bad || n < 0 || len(r.buf)-r.off < n {
		r.bad = true
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) i64() int     { return int(int64(r.u64())) }
func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *wireReader) boolv() bool  { return r.u8() != 0 }

func (r *wireReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) str() string {
	n := r.u32()
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	if r.in != nil {
		return r.in.get(b)
	}
	return string(b)
}

// count reads a u32 element count and sanity-bounds it against the
// remaining payload (each element needs at least one byte), so a
// corrupt count cannot drive a huge allocation.
func (r *wireReader) count() int {
	n := int(r.u32())
	if r.bad || n < 0 || n > len(r.buf)-r.off {
		if n != 0 {
			r.bad = true
		}
		return 0
	}
	return n
}

// strs reads a counted string list (nil when empty).
func (r *wireReader) strs() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

func (r *wireReader) done() bool { return !r.bad && r.off == len(r.buf) }

// ---- message payloads ---------------------------------------------------

func appendMemberTaskArgs(b []byte, t *MemberTaskArgs) []byte {
	b = appendI64(b, t.JobID)
	b = appendI64(b, t.TaskID)
	b = appendI64(b, t.Attempt)
	b = appendStr(b, t.Problem)
	b = appendI64(b, t.Variant)
	b = appendF64(b, t.Arrival)
	b = appendF64(b, t.Submitted)
	b = appendStr(b, t.Tenant)
	b = appendF64(b, t.Deadline)
	return appendU64(b, t.Term)
}

func (r *wireReader) memberTaskArgs(t *MemberTaskArgs) {
	t.JobID = r.i64()
	t.TaskID = r.i64()
	t.Attempt = r.i64()
	t.Problem = r.str()
	t.Variant = r.i64()
	t.Arrival = r.f64()
	t.Submitted = r.f64()
	t.Tenant = r.str()
	t.Deadline = r.f64()
	t.Term = r.u64()
}

func appendMemberEvalReply(b []byte, e *MemberEvalReply) []byte {
	b = appendStr(b, e.Server)
	b = appendF64(b, e.Score)
	b = appendF64(b, e.Tie)
	b = appendBool(b, e.Scored)
	b = appendBool(b, e.Unschedulable)
	return appendBool(b, e.DeadlineUnmet)
}

func (r *wireReader) memberEvalReply(e *MemberEvalReply) {
	e.Server = r.str()
	e.Score = r.f64()
	e.Tie = r.f64()
	e.Scored = r.boolv()
	e.Unschedulable = r.boolv()
	e.DeadlineUnmet = r.boolv()
}

func appendMemberCommitArgs(b []byte, c *MemberCommitArgs) []byte {
	b = appendMemberTaskArgs(b, &c.Task)
	return appendStr(b, c.Server)
}

func (r *wireReader) memberCommitArgs(c *MemberCommitArgs) {
	r.memberTaskArgs(&c.Task)
	c.Server = r.str()
}

func appendMemberDecisionReply(b []byte, d *MemberDecisionReply) []byte {
	b = appendStr(b, d.Server)
	b = appendF64(b, d.Predicted)
	b = appendBool(b, d.HasPrediction)
	b = appendBool(b, d.Unschedulable)
	return appendBool(b, d.DeadlineUnmet)
}

func (r *wireReader) memberDecisionReply(d *MemberDecisionReply) {
	d.Server = r.str()
	d.Predicted = r.f64()
	d.HasPrediction = r.boolv()
	d.Unschedulable = r.boolv()
	d.DeadlineUnmet = r.boolv()
}

func appendMemberBatchArgs(b []byte, a *MemberBatchArgs) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(a.Tasks)))
	for i := range a.Tasks {
		b = appendMemberTaskArgs(b, &a.Tasks[i])
	}
	return b
}

func (r *wireReader) memberBatchArgs(a *MemberBatchArgs) {
	n := r.count()
	if n > 0 {
		a.Tasks = make([]MemberTaskArgs, n)
		for i := range a.Tasks {
			r.memberTaskArgs(&a.Tasks[i])
		}
	} else {
		a.Tasks = nil
	}
}

func appendMemberBatchReply(b []byte, a *MemberBatchReply) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(a.Decisions)))
	for i := range a.Decisions {
		b = appendMemberDecisionReply(b, &a.Decisions[i])
	}
	return appendStr(b, a.Error)
}

func (r *wireReader) memberBatchReply(a *MemberBatchReply) {
	n := r.count()
	if n > 0 {
		a.Decisions = make([]MemberDecisionReply, n)
		for i := range a.Decisions {
			r.memberDecisionReply(&a.Decisions[i])
		}
	} else {
		a.Decisions = nil
	}
	a.Error = r.str()
}

func appendMemberSummaryReply(b []byte, s *MemberSummaryReply) []byte {
	b = appendI64(b, s.InFlight)
	b = appendI64(b, s.Servers)
	b = appendF64(b, s.MinReady)
	b = appendBool(b, s.HasMinReady)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.TenantInFlight)))
	for k, v := range s.TenantInFlight {
		b = appendStr(b, k)
		b = appendI64(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.ServerReady)))
	for k, v := range s.ServerReady {
		b = appendStr(b, k)
		b = appendF64(b, v)
	}
	b = appendU64(b, s.RelaySeq)
	return appendBool(b, s.HasRelay)
}

func (r *wireReader) memberSummaryReply(s *MemberSummaryReply) {
	s.InFlight = r.i64()
	s.Servers = r.i64()
	s.MinReady = r.f64()
	s.HasMinReady = r.boolv()
	if n := r.count(); n > 0 {
		s.TenantInFlight = make(map[string]int, n)
		for i := 0; i < n; i++ {
			k := r.str()
			v := r.i64()
			if !r.bad {
				s.TenantInFlight[k] = v
			}
		}
	} else {
		s.TenantInFlight = nil // nil map = absent
	}
	if n := r.count(); n > 0 {
		s.ServerReady = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k := r.str()
			v := r.f64()
			if !r.bad {
				s.ServerReady[k] = v
			}
		}
	} else {
		s.ServerReady = nil
	}
	s.RelaySeq = r.u64()
	s.HasRelay = r.boolv()
}

func appendTaskDoneArgs(b []byte, a *TaskDoneArgs) []byte {
	b = appendI64(b, a.TaskKey)
	b = appendStr(b, a.Server)
	return appendF64(b, a.At)
}

func (r *wireReader) taskDoneArgs(a *TaskDoneArgs) {
	a.TaskKey = r.i64()
	a.Server = r.str()
	a.At = r.f64()
}

func appendMemberRelayArgs(b []byte, a *MemberRelayArgs) []byte {
	return appendU64(b, a.Since)
}

func (r *wireReader) memberRelayArgs(a *MemberRelayArgs) {
	a.Since = r.u64()
}

func appendMemberRelayReply(b []byte, a *MemberRelayReply) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(a.Events)))
	for i := range a.Events {
		ev := &a.Events[i]
		b = appendU64(b, ev.Seq)
		b = append(b, ev.Kind)
		b = appendI64(b, ev.JobID)
		b = appendStr(b, ev.Tenant)
		b = appendStr(b, ev.Server)
		b = appendF64(b, ev.Time)
		b = appendF64(b, ev.Ready)
		b = appendBool(b, ev.HasReady)
	}
	b = appendU64(b, a.From)
	b = appendU64(b, a.To)
	b = appendBool(b, a.Resync)
	return appendBool(b, a.Disabled)
}

func (r *wireReader) memberRelayReply(a *MemberRelayReply) {
	if n := r.count(); n > 0 {
		a.Events = make([]RelayEvent, n)
		for i := range a.Events {
			ev := &a.Events[i]
			ev.Seq = r.u64()
			ev.Kind = r.u8()
			ev.JobID = r.i64()
			ev.Tenant = r.str()
			ev.Server = r.str()
			ev.Time = r.f64()
			ev.Ready = r.f64()
			ev.HasReady = r.boolv()
		}
	} else {
		a.Events = nil
	}
	a.From = r.u64()
	a.To = r.u64()
	a.Resync = r.boolv()
	a.Disabled = r.boolv()
}
