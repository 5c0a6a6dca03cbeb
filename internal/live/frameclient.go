package live

// Client half of the framed member wire: a pipelined connection
// keeping a sliding window of correlated requests in flight. Callers
// block only on their own reply, not on the connection — concurrent
// calls share one TCP stream instead of paying a round trip each, so
// a dispatcher driving hundreds of servers per member amortizes the
// wire latency across the window.
//
// A steady call allocates nothing. Each call borrows a pooled slot
// (frameCall) that carries its timer, its completion channel, its copy
// of the reply payload and the reader the reply is decoded with; the
// request is encoded into the connection's write buffer and the reply
// header read into the reader loop's frame scratch. Strings in replies
// (server names, tenants) are interned per connection, as the member
// interns those of requests. A commit started ahead of its answer is a
// value (CommitCall) holding its slot, not a closure. Each of the calls
// a decision makes counts its frames, payload bytes and round-trip time
// in a fixed slot of atomics (WireStats).

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"casched/internal/cluster"
)

// ErrWireTimeout marks a framed call that exceeded its budget; the
// request may have reached the member, so callers must treat the
// outcome as uncertain for mutating calls.
var ErrWireTimeout = errors.New("live: framed call timed out")

// frameWindow bounds the requests in flight per framed connection.
const frameWindow = 64

// frameCall is one in-flight request slot. Slots are pooled with their
// timer and completion channel: done is 1-buffered and receives exactly
// one send per registration — from whoever removes the slot from the
// pending table (the reader on a reply, fail on a transport error) — so
// it is empty again once the waiter has taken that send.
type frameCall struct {
	done    chan struct{}
	timer   *time.Timer // armed for the whole call: window wait, write, reply
	id      uint64
	typ     byte
	payload []byte
	err     error
	r       wireReader // decodes payload (finish)
	op      *wireSlot  // the call's traffic counters, nil for an uncounted call
	sent    time.Time  // when the request was written
}

// wireSlot counts one call's traffic (cluster.WireOp) with atomics, so
// the calls of concurrent callers count without a lock or a map.
type wireSlot struct {
	frames, bytesOut, bytesIn, rttNanos atomic.Uint64
}

func (s *wireSlot) load() cluster.WireOp {
	return cluster.WireOp{
		Frames:   s.frames.Load(),
		BytesOut: s.bytesOut.Load(),
		BytesIn:  s.bytesIn.Load(),
		RTT:      time.Duration(s.rttNanos.Load()),
	}
}

// FrameClient speaks the framed member wire over one connection.
// Safe for concurrent use.
type FrameClient struct {
	conn    net.Conn
	timeout time.Duration

	wmu  sync.Mutex // serializes frame writes; wbuf is its scratch
	wbuf []byte

	mu      sync.Mutex
	pending map[uint64]*frameCall
	nextID  uint64
	broken  error

	window chan struct{}
	calls  sync.Pool

	// names interns the strings of replies. Replies are decoded on the
	// callers' goroutines, so decoding holds nmu.
	nmu   sync.Mutex
	names intern

	evaluate, commit, complete, summary, relay wireSlot
}

// slot returns the traffic counters of a request type, nil for the
// calls that are not counted.
func (c *FrameClient) slot(typ byte) *wireSlot {
	switch typ {
	case msgEvaluate:
		return &c.evaluate
	case msgCommit:
		return &c.commit
	case msgComplete:
		return &c.complete
	case msgSummary:
		return &c.summary
	case msgRelay:
		return &c.relay
	}
	return nil
}

// WireStats returns the connection's traffic so far for the calls a
// decision and its upkeep make.
func (c *FrameClient) WireStats() cluster.WireStats {
	return cluster.WireStats{
		Evaluate: c.evaluate.load(),
		Commit:   c.commit.load(),
		Complete: c.complete.load(),
		Summary:  c.summary.load(),
		Relay:    c.relay.load(),
	}
}

// NewFrameClient performs the framed handshake on conn and starts the
// reply reader. The timeout bounds the handshake, each call, and each
// frame write; non-positive selects 2s. On error the conn is closed; a
// member on another frame version is reported with both versions named.
func NewFrameClient(conn net.Conn, timeout time.Duration) (*FrameClient, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write(frameHandshake[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("live: framed handshake: %w", err)
	}
	var echo [len(frameHandshake)]byte
	if _, err := io.ReadFull(conn, echo[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("live: framed handshake: %w", err)
	}
	if echo != frameHandshake {
		conn.Close()
		if v, ok := peerFrameVersion(echo); ok {
			return nil, fmt.Errorf("live: member speaks frame v%d, dispatcher v%d", v, FrameVersion)
		}
		return nil, errors.New("live: framed handshake rejected")
	}
	conn.SetDeadline(time.Time{})
	c := &FrameClient{
		conn:    conn,
		timeout: timeout,
		pending: make(map[uint64]*frameCall),
		window:  make(chan struct{}, frameWindow),
		names:   make(intern),
	}
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; in-flight calls fail.
func (c *FrameClient) Close() error {
	c.fail(errors.New("live: framed connection closed"))
	return nil
}

// fail marks the connection broken, closes it, and completes every
// pending call with the transport error.
func (c *FrameClient) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	err = c.broken
	pend := c.pending
	c.pending = make(map[uint64]*frameCall)
	c.mu.Unlock()
	c.conn.Close()
	for _, call := range pend {
		call.err = err
		call.done <- struct{}{}
	}
}

// readLoop matches reply frames to pending calls by correlation ID.
// Replies to calls that already timed out client-side are discarded.
// The frame scratch is the loop's own: the writers' cache lines never
// see it.
func (c *FrameClient) readLoop() {
	br := bufio.NewReaderSize(c.conn, frameReadBuf)
	var buf []byte
	for {
		if err := c.readReply(br, &buf); err != nil {
			c.fail(fmt.Errorf("live: framed read: %w", err))
			return
		}
	}
}

// readReply reads one reply frame through the scratch *buf, hands its
// payload to the call waiting for it, and drops scratch the frame grew
// past maxFrameScratch before the call is completed.
func (c *FrameClient) readReply(r io.Reader, buf *[]byte) error {
	typ, corr, payload, err := readFrame(r, buf)
	if err != nil {
		return err
	}
	c.mu.Lock()
	call := c.pending[corr]
	delete(c.pending, corr)
	c.mu.Unlock()
	if call != nil {
		call.typ = typ
		call.payload = append(call.payload[:0], payload...)
	}
	*buf = trimScratch(*buf)
	if call != nil {
		call.done <- struct{}{}
	}
	return nil
}

// getCall returns a slot with its timer armed for one call.
func (c *FrameClient) getCall() *frameCall {
	if v := c.calls.Get(); v != nil {
		call := v.(*frameCall)
		call.typ, call.err = 0, nil
		call.timer.Reset(c.timeout)
		return call
	}
	return &frameCall{done: make(chan struct{}, 1), timer: time.NewTimer(c.timeout)}
}

// putCall pools a slot whose call completed: its done channel is empty
// and its timer is stopped and drained, so both are ready for Reset and
// reuse. A slot whose call timed out is never passed here — its timer
// has fired and a late completion must find nobody listening.
func (c *FrameClient) putCall(call *frameCall) {
	if !call.timer.Stop() {
		select {
		case <-call.timer.C:
		default:
		}
	}
	call.payload = trimScratch(call.payload)
	call.r, call.op = wireReader{}, nil
	c.calls.Put(call)
}

// start is the first half of a call: it takes a window slot, registers
// the call and writes its request frame. enc appends the request
// payload. When start returns without error the frame is on the
// connection ahead of every frame a later start writes, and the member
// serves frames in that order; the caller must then call await exactly
// once.
func (c *FrameClient) start(typ byte, enc func([]byte) []byte) (*frameCall, error) {
	call := c.getCall()
	select {
	case c.window <- struct{}{}:
	case <-call.timer.C:
		return nil, fmt.Errorf("live: framed window full: %w", ErrWireTimeout)
	}

	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		<-c.window
		c.putCall(call)
		return nil, err
	}
	call.id = c.nextID
	c.nextID++
	c.pending[call.id] = call
	c.mu.Unlock()

	c.wmu.Lock()
	b := beginFrame(c.wbuf[:0], typ, call.id)
	b = enc(b)
	b = endFrame(b, 0)
	call.sent = time.Now()
	c.conn.SetWriteDeadline(call.sent.Add(c.timeout))
	_, werr := c.conn.Write(b)
	c.wbuf = trimScratch(b)
	c.wmu.Unlock()
	if werr != nil {
		// A failed or partial write poisons the stream for every call.
		werr = fmt.Errorf("live: framed write: %w", werr)
		c.fail(werr)
		<-call.done // sent by fail, or by the reader if a reply raced it
		<-c.window
		return nil, werr
	}
	if call.op = c.slot(typ); call.op != nil {
		call.op.frames.Add(1)
		call.op.bytesOut.Add(uint64(len(b) - frameHeaderLen))
	}
	return call, nil
}

// await is the second half: it waits for the reply of a started call or
// for the call's timeout and releases the window slot. On success the
// call holds the reply frame; the caller must release it with putCall.
func (c *FrameClient) await(call *frameCall) (err error) {
	defer func() { <-c.window }()
	select {
	case <-call.done:
		err = call.err
	case <-call.timer.C:
		c.mu.Lock()
		if _, ok := c.pending[call.id]; ok {
			delete(c.pending, call.id)
			c.mu.Unlock()
			// Nobody will complete the slot now (the reader discards the
			// late reply), and it is not pooled again.
			countRoundTrip(call, false)
			return ErrWireTimeout
		}
		c.mu.Unlock()
		// The reply (or a transport failure) raced the timer: take it.
		<-call.done
		err = call.err
	}
	countRoundTrip(call, err == nil)
	return err
}

// countRoundTrip books the round trip of a counted call that was
// written and has now been answered (replied: its payload is the
// reply's), failed or timed out.
func countRoundTrip(call *frameCall, replied bool) {
	if call.op == nil {
		return
	}
	call.op.rttNanos.Add(uint64(time.Since(call.sent)))
	if replied {
		call.op.bytesIn.Add(uint64(len(call.payload)))
	}
}

// roundTrip is start then await: one blocking call.
func (c *FrameClient) roundTrip(typ byte, enc func([]byte) []byte) (*frameCall, error) {
	call, err := c.start(typ, enc)
	if err != nil {
		return nil, err
	}
	if err := c.await(call); err != nil {
		return nil, err
	}
	return call, nil
}

// finish decodes a reply frame into dec, translating msgError frames
// into WireError and protocol violations into a torn-down connection.
// The reader is the call's own, so handing it to dec costs nothing.
func (c *FrameClient) finish(call *frameCall, want byte, dec func(*wireReader)) error {
	defer c.putCall(call)
	if call.typ == msgError {
		return WireError(string(call.payload))
	}
	if call.typ != want|msgReplyBit {
		err := fmt.Errorf("live: framed reply type %#x, want %#x", call.typ, want|msgReplyBit)
		c.fail(err)
		return err
	}
	call.r = wireReader{buf: call.payload, in: c.names}
	c.nmu.Lock()
	dec(&call.r)
	c.nmu.Unlock()
	if !call.r.done() {
		err := errors.New("live: malformed framed reply")
		c.fail(err)
		return err
	}
	return nil
}

// Evaluate runs Member.Evaluate over the framed wire.
func (c *FrameClient) Evaluate(args *MemberTaskArgs) (MemberEvalReply, error) {
	call, err := c.roundTrip(msgEvaluate, func(b []byte) []byte { return appendMemberTaskArgs(b, args) })
	if err != nil {
		return MemberEvalReply{}, err
	}
	var reply MemberEvalReply
	err = c.finish(call, msgEvaluate, func(r *wireReader) { r.memberEvalReply(&reply) })
	return reply, err
}

// Commit runs Member.Commit over the framed wire.
func (c *FrameClient) Commit(args *MemberCommitArgs) (MemberDecisionReply, error) {
	return c.StartCommit(args).Wait()
}

// StartCommit writes the Member.Commit request and returns without
// waiting for the answer: from then on the member serves the commit
// before any frame written to this connection later. The returned
// call's Wait blocks for the reply and must be called exactly once.
func (c *FrameClient) StartCommit(args *MemberCommitArgs) CommitCall {
	call, err := c.start(msgCommit, func(b []byte) []byte { return appendMemberCommitArgs(b, args) })
	return CommitCall{c: c, call: call, err: err}
}

// CommitCall is a Member.Commit whose request is written and whose
// reply is not yet collected (FrameClient.StartCommit). It is a value
// over the call's pooled slot: starting a commit allocates nothing.
type CommitCall struct {
	c    *FrameClient
	call *frameCall
	err  error // the start failed; nothing to wait for
}

// Wait blocks for the commit's reply. Call it exactly once.
func (cc CommitCall) Wait() (MemberDecisionReply, error) {
	var reply MemberDecisionReply
	err := cc.err
	if err == nil {
		err = cc.c.await(cc.call)
	}
	if err == nil {
		err = cc.c.finish(cc.call, msgCommit, func(r *wireReader) { r.memberDecisionReply(&reply) })
	}
	return reply, err
}

// Submit runs Member.Submit over the framed wire.
func (c *FrameClient) Submit(args *MemberTaskArgs) (MemberDecisionReply, error) {
	call, err := c.roundTrip(msgSubmit, func(b []byte) []byte { return appendMemberTaskArgs(b, args) })
	if err != nil {
		return MemberDecisionReply{}, err
	}
	var reply MemberDecisionReply
	err = c.finish(call, msgSubmit, func(r *wireReader) { r.memberDecisionReply(&reply) })
	return reply, err
}

// SubmitBatch runs Member.SubmitBatch over the framed wire.
func (c *FrameClient) SubmitBatch(args *MemberBatchArgs) (MemberBatchReply, error) {
	call, err := c.roundTrip(msgSubmitBatch, func(b []byte) []byte { return appendMemberBatchArgs(b, args) })
	if err != nil {
		return MemberBatchReply{}, err
	}
	var reply MemberBatchReply
	err = c.finish(call, msgSubmitBatch, func(r *wireReader) { r.memberBatchReply(&reply) })
	return reply, err
}

// Summary runs Member.Summary over the framed wire.
func (c *FrameClient) Summary() (MemberSummaryReply, error) {
	call, err := c.roundTrip(msgSummary, func(b []byte) []byte { return b })
	if err != nil {
		return MemberSummaryReply{}, err
	}
	var reply MemberSummaryReply
	err = c.finish(call, msgSummary, func(r *wireReader) { r.memberSummaryReply(&reply) })
	return reply, err
}

// Relay runs Member.Relay over the framed wire.
func (c *FrameClient) Relay(args *MemberRelayArgs) (MemberRelayReply, error) {
	call, err := c.roundTrip(msgRelay, func(b []byte) []byte { return appendMemberRelayArgs(b, args) })
	if err != nil {
		return MemberRelayReply{}, err
	}
	var reply MemberRelayReply
	err = c.finish(call, msgRelay, func(r *wireReader) { r.memberRelayReply(&reply) })
	return reply, err
}

// Complete runs Member.Complete over the framed wire.
func (c *FrameClient) Complete(args *TaskDoneArgs) error {
	call, err := c.roundTrip(msgComplete, func(b []byte) []byte { return appendTaskDoneArgs(b, args) })
	if err != nil {
		return err
	}
	return c.finish(call, msgComplete, func(*wireReader) {})
}

// The six calls below are cold — once per server registration, monitor
// report or promotion, never per decision — and share one path.

// cold is one blocking call: enc appends the request payload, dec reads
// the reply payload.
func (c *FrameClient) cold(typ byte, enc func([]byte) []byte, dec func(*wireReader)) error {
	call, err := c.roundTrip(typ, enc)
	if err != nil {
		return err
	}
	return c.finish(call, typ, dec)
}

func noPayload(b []byte) []byte { return b }
func noReply(*wireReader)       {}

// CanSolve runs Member.CanSolve over the framed wire.
func (c *FrameClient) CanSolve(problem string, variant int) (ok bool, err error) {
	err = c.cold(msgCanSolve,
		func(b []byte) []byte { return appendI64(appendStr(b, problem), variant) },
		func(r *wireReader) { ok = r.boolv() })
	return ok, err
}

// AddServer runs Member.AddServer over the framed wire.
func (c *FrameClient) AddServer(name string) error {
	return c.cold(msgAddServer, func(b []byte) []byte { return appendStr(b, name) }, noReply)
}

// RemoveServer runs Member.RemoveServer over the framed wire.
func (c *FrameClient) RemoveServer(name string) error {
	return c.cold(msgRemoveServer, func(b []byte) []byte { return appendStr(b, name) }, noReply)
}

// Report runs Member.Report over the framed wire.
func (c *FrameClient) Report(name string, load, at float64) error {
	return c.cold(msgReport, func(b []byte) []byte { return appendF64(appendF64(appendStr(b, name), load), at) }, noReply)
}

// Fence runs Member.Fence over the framed wire.
func (c *FrameClient) Fence(term uint64) error {
	return c.cold(msgFence, func(b []byte) []byte { return appendU64(b, term) }, noReply)
}

// Partition runs Member.Partition over the framed wire.
func (c *FrameClient) Partition() (servers []string, err error) {
	err = c.cold(msgPartition, noPayload, func(r *wireReader) { servers = r.strs() })
	return servers, err
}
