package live

// Server half of the framed member wire: protocol sniffing on accepted
// connections and the per-connection framed dispatch loop. See
// frame.go for the wire format.

import (
	"bufio"
	"errors"
	"io"
	"net"

	"casched/internal/task"
)

// prefixConn replays sniffed bytes before reading from the underlying
// connection, so net/rpc sees an untouched stream after the one-byte
// protocol sniff.
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
// replayed into the net/rpc server of the "Agent" service.
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

// serveFramed reads the peer's preamble (the sentinel byte is already
// consumed), answers its own — so a dispatcher on another frame version
// learns which one this member speaks instead of seeing a dead peer —
// and, if the two are identical, serves frames sequentially: one
// buffered reader (a frame's header and body, and under pipelining
// several frames, per read syscall), one reused frame buffer, one
// reused write buffer, one interning table per connection, so the
// steady decision stream stops allocating once the problem and server
// vocabulary has been seen. Sequential handling still yields wire
// pipelining — the client keeps a window of requests in flight and the
// member's core serializes decisions on its own lock anyway — and it is
// what the dispatcher's ordering argument rests on: a frame is served
// after every frame written to the connection before it (internal/fed,
// "Ordering"). Any malformed frame closes the connection.
func (a *Agent) serveFramed(conn net.Conn) {
	var hs [len(frameHandshake)]byte
	hs[0] = frameSentinel
	if _, err := io.ReadFull(conn, hs[1:]); err != nil {
		return
	}
	if _, framed := peerFrameVersion(hs); !framed {
		return
	}
	if _, err := conn.Write(frameHandshake[:]); err != nil || hs != frameHandshake {
		return
	}
	h := frameHandler{a: a, in: make(intern)}
	br := bufio.NewReaderSize(conn, frameReadBuf)
	for h.serveFrame(br, conn) == nil {
	}
}

// frameHandler is one framed connection's state: the member it drives,
// the frame scratch and the request and reply structs, reused across
// frames (reset before each decode) so the hot Evaluate/Commit/Submit
// handlers do not allocate per call.
type frameHandler struct {
	a  *Agent
	in intern

	rbuf, wbuf []byte

	task   MemberTaskArgs
	commit MemberCommitArgs
	eval   MemberEvalReply
	dec    MemberDecisionReply
	batch  MemberBatchArgs
	brep   MemberBatchReply
	sum    MemberSummaryReply
	rrep   MemberRelayReply
	done   TaskDoneArgs
}

// serveFrame reads one request frame, answers it, and drops whatever
// scratch the frame grew past maxFrameScratch.
func (h *frameHandler) serveFrame(r io.Reader, w io.Writer) error {
	typ, corr, payload, err := readFrame(r, &h.rbuf)
	if err != nil {
		return err
	}
	h.wbuf, err = h.handle(h.wbuf[:0], typ, corr, payload)
	h.rbuf = trimScratch(h.rbuf)
	if err != nil {
		return err
	}
	_, err = w.Write(h.wbuf)
	h.wbuf = trimScratch(h.wbuf)
	return err
}

// errProtocol marks a frame the handler cannot decode or a message
// type it does not know; the connection is torn down rather than
// answered.
var errProtocol = errors.New("live: malformed or unknown frame")

// errSharded answers every member call on an agent without a single
// core: a member is itself one partition.
var errSharded = errors.New("live: a sharded agent cannot serve as a federation member")

// handle decodes one request frame, runs the call against the member's
// core (member.go) and appends the reply frame — or an msgError frame
// for an application-level failure — to b.
func (h *frameHandler) handle(b []byte, typ byte, corr uint64, payload []byte) ([]byte, error) {
	core := h.a.core
	if core == nil {
		return appendErrorFrame(b, corr, errSharded), nil
	}
	r := wireReader{buf: payload, in: h.in}
	start := len(b)
	b = beginFrame(b, typ|msgReplyBit, corr)
	// Each case decodes its request and, only if the payload was
	// consumed exactly, runs the call and appends the reply payload.
	var err error
	switch typ {
	case msgEvaluate:
		h.task = MemberTaskArgs{}
		if r.memberTaskArgs(&h.task); r.done() {
			h.eval = MemberEvalReply{}
			err = h.evaluate()
			b = appendMemberEvalReply(b, &h.eval)
		}
	case msgCommit:
		h.commit = MemberCommitArgs{}
		if r.memberCommitArgs(&h.commit); r.done() {
			err = h.commitTask()
			b = appendMemberDecisionReply(b, &h.dec)
		}
	case msgSubmit:
		h.task = MemberTaskArgs{}
		if r.memberTaskArgs(&h.task); r.done() {
			err = h.submit()
			b = appendMemberDecisionReply(b, &h.dec)
		}
	case msgSubmitBatch:
		h.batch = MemberBatchArgs{}
		if r.memberBatchArgs(&h.batch); r.done() {
			err = h.submitBatch()
			b = appendMemberBatchReply(b, &h.brep)
		}
	case msgSummary:
		if r.done() {
			h.sum = MemberSummaryReply(core.LoadSummary()) // same fields, in the same order
			b = appendMemberSummaryReply(b, &h.sum)
		}
	case msgRelay:
		var args MemberRelayArgs
		if r.memberRelayArgs(&args); r.done() {
			h.relay(args.Since)
			b = appendMemberRelayReply(b, &h.rrep)
		}
	case msgComplete:
		h.done = TaskDoneArgs{}
		if r.taskDoneArgs(&h.done); r.done() {
			core.Complete(h.done.TaskKey, h.done.Server, h.done.At)
		}
	case msgCanSolve:
		if problem, variant := r.str(), r.i64(); r.done() {
			var spec *task.Spec
			if spec, err = task.Resolve(problem, variant); err == nil {
				b = appendBool(b, core.CanSolve(spec))
			}
		}
	case msgAddServer:
		if name := r.str(); r.done() {
			core.AddServer(name)
		}
	case msgRemoveServer:
		if name := r.str(); r.done() {
			core.RemoveServer(name)
		}
	case msgReport:
		if name, load, at := r.str(), r.f64(), r.f64(); r.done() {
			core.Report(name, load, at)
		}
	case msgFence:
		if term := r.u64(); r.done() {
			err = h.a.admitTerm(term)
		}
	case msgPartition:
		if r.done() {
			b = appendStrs(b, core.Servers())
		}
	default:
		return nil, errProtocol
	}
	if !r.done() {
		return nil, errProtocol
	}
	if err != nil {
		return appendErrorFrame(b[:start], corr, err), nil
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
