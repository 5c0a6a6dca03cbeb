package live

// Server half of the framed member wire: protocol sniffing on accepted
// connections and the per-connection framed dispatch loop. See
// frame.go for the wire format.

import (
	"bufio"
	"io"
	"net"
)

// prefixConn replays sniffed bytes before reading from the underlying
// connection, so the gob path sees an untouched stream after the
// one-byte protocol sniff.
type prefixConn struct {
	net.Conn
	prefix []byte
}

func (p *prefixConn) Read(b []byte) (int, error) {
	if len(p.prefix) > 0 {
		n := copy(b, p.prefix)
		p.prefix = p.prefix[n:]
		return n, nil
	}
	return p.Conn.Read(b)
}

// serveConn sniffs the first byte of an accepted connection: the
// framed handshake sentinel 0x00 — never a legal first byte of a gob
// request stream — selects the framed member wire; anything else is
// replayed into the legacy net/rpc (gob) server.
func (a *Agent) serveConn(conn net.Conn) {
	var first [1]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		return
	}
	if first[0] == frameSentinel {
		a.serveFramed(conn)
		return
	}
	a.srv.ServeConn(&prefixConn{Conn: conn, prefix: first[:]})
}

// serveFramed validates and echoes the handshake (the sentinel byte is
// already consumed), then serves frames sequentially: one buffered
// reader (a frame's header and body, and under pipelining several
// frames, per read syscall), one reused frame buffer, one reused write
// buffer, one interning table per connection, so the steady decision
// stream stops allocating once the problem and server vocabulary has
// been seen. Sequential handling still yields wire pipelining — the
// client keeps a window of requests in flight and the member's core
// serializes decisions on its own lock anyway — and it is what the
// dispatcher's ordering argument rests on: a frame is served after
// every frame written to the connection before it (internal/fed,
// "Ordering"). Any malformed frame closes the connection.
func (a *Agent) serveFramed(conn net.Conn) {
	var hs [len(frameHandshake)]byte
	hs[0] = frameSentinel
	if _, err := io.ReadFull(conn, hs[1:]); err != nil || !acceptsHandshake(hs) {
		return
	}
	if _, err := conn.Write(hs[:]); err != nil {
		return
	}
	svc := &MemberService{a}
	var (
		br   = bufio.NewReaderSize(conn, frameReadBuf)
		rbuf []byte
		wbuf []byte
		in   = make(intern)
		h    = frameHandler{svc: svc}
	)
	for {
		typ, corr, payload, err := readFrame(br, &rbuf)
		if err != nil {
			return
		}
		wbuf, err = h.handle(wbuf[:0], typ, corr, payload, in)
		if err != nil {
			return
		}
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}

// frameHandler owns the per-connection reply scratch: request and
// reply structs are reused across frames (reset before each decode)
// so the hot Evaluate/Commit/Submit handlers do not allocate per call.
type frameHandler struct {
	svc *MemberService

	task   MemberTaskArgs
	commit MemberCommitArgs
	eval   MemberEvalReply
	dec    MemberDecisionReply
	batch  MemberBatchArgs
	brep   MemberBatchReply
	sum    MemberSummaryReply
	relay  MemberRelayArgs
	rrep   MemberRelayReply
	done   TaskDoneArgs
}

// errProtocol marks a frame the handler cannot decode or a message
// type it does not know; the connection is torn down rather than
// answered.
type protocolError string

func (e protocolError) Error() string { return string(e) }

// handle decodes one request frame, runs the matching MemberService
// handler and appends the reply frame (or an msgError frame for an
// application-level failure) to b.
func (h *frameHandler) handle(b []byte, typ byte, corr uint64, payload []byte, in intern) ([]byte, error) {
	r := wireReader{buf: payload, in: in}
	start := len(b)
	switch typ {
	case msgEvaluate:
		h.task = MemberTaskArgs{}
		r.memberTaskArgs(&h.task)
		if !r.done() {
			return nil, protocolError("live: malformed Evaluate frame")
		}
		h.eval = MemberEvalReply{}
		if err := h.svc.Evaluate(h.task, &h.eval); err != nil {
			return appendErrorFrame(b, corr, err), nil
		}
		b = beginFrame(b, typ|msgReplyBit, corr)
		b = appendMemberEvalReply(b, &h.eval)
	case msgCommit:
		h.commit = MemberCommitArgs{}
		r.memberCommitArgs(&h.commit)
		if !r.done() {
			return nil, protocolError("live: malformed Commit frame")
		}
		h.dec = MemberDecisionReply{}
		if err := h.svc.Commit(h.commit, &h.dec); err != nil {
			return appendErrorFrame(b, corr, err), nil
		}
		b = beginFrame(b, typ|msgReplyBit, corr)
		b = appendMemberDecisionReply(b, &h.dec)
	case msgSubmit:
		h.task = MemberTaskArgs{}
		r.memberTaskArgs(&h.task)
		if !r.done() {
			return nil, protocolError("live: malformed Submit frame")
		}
		h.dec = MemberDecisionReply{}
		if err := h.svc.Submit(h.task, &h.dec); err != nil {
			return appendErrorFrame(b, corr, err), nil
		}
		b = beginFrame(b, typ|msgReplyBit, corr)
		b = appendMemberDecisionReply(b, &h.dec)
	case msgSubmitBatch:
		h.batch = MemberBatchArgs{}
		r.memberBatchArgs(&h.batch)
		if !r.done() {
			return nil, protocolError("live: malformed SubmitBatch frame")
		}
		h.brep = MemberBatchReply{}
		if err := h.svc.SubmitBatch(h.batch, &h.brep); err != nil {
			return appendErrorFrame(b, corr, err), nil
		}
		b = beginFrame(b, typ|msgReplyBit, corr)
		b = appendMemberBatchReply(b, &h.brep)
	case msgSummary:
		if !r.done() {
			return nil, protocolError("live: malformed Summary frame")
		}
		h.sum = MemberSummaryReply{}
		if err := h.svc.Summary(Ack{}, &h.sum); err != nil {
			return appendErrorFrame(b, corr, err), nil
		}
		b = beginFrame(b, typ|msgReplyBit, corr)
		b = appendMemberSummaryReply(b, &h.sum)
	case msgRelay:
		h.relay = MemberRelayArgs{}
		r.memberRelayArgs(&h.relay)
		if !r.done() {
			return nil, protocolError("live: malformed Relay frame")
		}
		h.rrep = MemberRelayReply{}
		if err := h.svc.Relay(h.relay, &h.rrep); err != nil {
			return appendErrorFrame(b, corr, err), nil
		}
		b = beginFrame(b, typ|msgReplyBit, corr)
		b = appendMemberRelayReply(b, &h.rrep)
	case msgComplete:
		h.done = TaskDoneArgs{}
		r.taskDoneArgs(&h.done)
		if !r.done() {
			return nil, protocolError("live: malformed Complete frame")
		}
		if err := h.svc.Complete(h.done, nil); err != nil {
			return appendErrorFrame(b, corr, err), nil
		}
		b = beginFrame(b, typ|msgReplyBit, corr)
	default:
		return nil, protocolError("live: unknown frame type")
	}
	return endFrame(b, start), nil
}

// appendErrorFrame answers an application error as a delivered
// msgError frame carrying the error string.
func appendErrorFrame(b []byte, corr uint64, err error) []byte {
	start := len(b)
	b = beginFrame(b, msgError, corr)
	b = append(b, err.Error()...)
	return endFrame(b, start)
}
