package main

import (
	"fmt"
	"strings"

	"casched/internal/agent"
	"casched/internal/fed"
	"casched/internal/htm"
	"casched/internal/relay"
	"casched/internal/sched"
	"casched/internal/task"
)

// tracedSched is the span-recording part shared by the scheduler
// wrappers: a sched.choose span around the heuristic, and inside it an
// htm.evaluate_all span around the evaluator the heuristic consults.
// One instance serves one core, whose lock serializes the calls.
type tracedSched struct {
	tr    *tracer
	lane  int
	inner func(*sched.Context) (sched.Choice, error)
	ev    tracedEval
	bufEv tracedBufEval
}

func (t *tracedSched) choose(ctx *sched.Context) (sched.Choice, error) {
	if !t.tr.enabled() {
		return t.inner(ctx)
	}
	sp := t.tr.begin(spSchedChoose, int64(ctx.JobID), t.lane, t.tr.parentFor(t.lane, int64(ctx.JobID)))
	orig := ctx.HTM
	// The wrapper must offer EvaluateAllInto exactly when the wrapped
	// evaluator does, or the heuristic would leave its zero-allocation
	// path (or gain one the batch cache does not have).
	if be, ok := orig.(sched.BufferedEvaluator); ok {
		t.bufEv = tracedBufEval{tracedEval{t.tr, t.lane, sp, be}, be}
		ctx.HTM = &t.bufEv
	} else if orig != nil {
		t.ev = tracedEval{t.tr, t.lane, sp, orig}
		ctx.HTM = &t.ev
	}
	c, err := t.inner(ctx)
	ctx.HTM = orig
	t.tr.end(sp)
	return c, err
}

// The scheduler wrappers embed the concrete heuristic so that its
// unexported usesHTM marker is promoted: sched.UsesHTM must still see
// an HTM heuristic, or the core would not build a trace manager.

type tracedHMCT struct {
	*sched.HMCT
	tracedSched
}

func (t *tracedHMCT) ChooseScored(ctx *sched.Context) (sched.Choice, error) { return t.choose(ctx) }
func (t *tracedHMCT) Choose(ctx *sched.Context) (string, error) {
	c, err := t.choose(ctx)
	return c.Server, err
}

type tracedMSF struct {
	*sched.MSF
	tracedSched
}

func (t *tracedMSF) ChooseScored(ctx *sched.Context) (sched.Choice, error) { return t.choose(ctx) }
func (t *tracedMSF) Choose(ctx *sched.Context) (string, error) {
	c, err := t.choose(ctx)
	return c.Server, err
}

// newScheduler returns the named heuristic, wrapped to record spans on
// lane when tr is non-nil. The benchmark uses HMCT and MSF only.
func newScheduler(name string, tr *tracer, lane int) (sched.Scheduler, error) {
	switch strings.ToUpper(name) {
	case "HMCT":
		h := sched.NewHMCT()
		if tr == nil {
			return h, nil
		}
		return &tracedHMCT{h, tracedSched{tr: tr, lane: lane, inner: h.ChooseScored}}, nil
	case "MSF":
		m := sched.NewMSF()
		if tr == nil {
			return m, nil
		}
		return &tracedMSF{m, tracedSched{tr: tr, lane: lane, inner: m.ChooseScored}}, nil
	}
	return nil, fmt.Errorf("casbench: no traced wrapper for heuristic %q", name)
}

// tracedEval records an htm.evaluate_all span, with the number of
// predictions returned, around each EvaluateAll of the wrapped evaluator.
type tracedEval struct {
	tr     *tracer
	lane   int
	parent int32
	inner  sched.Evaluator
}

func (e *tracedEval) EvaluateAll(id int, spec *task.Spec, arrival float64, candidates []string) ([]htm.Prediction, error) {
	sp := e.tr.begin(spHTMEvaluateAll, int64(id), e.lane, e.parent)
	preds, err := e.inner.EvaluateAll(id, spec, arrival, candidates)
	e.tr.setCount(sp, len(preds))
	e.tr.end(sp)
	return preds, err
}

func (e *tracedEval) ProjectedReady(server string) (float64, bool) {
	return e.inner.ProjectedReady(server)
}

type tracedBufEval struct {
	tracedEval
	be sched.BufferedEvaluator
}

func (e *tracedBufEval) EvaluateAllInto(id int, spec *task.Spec, arrival float64, candidates []string, out []htm.Prediction) ([]htm.Prediction, error) {
	sp := e.tr.begin(spHTMEvaluateAll, int64(id), e.lane, e.parent)
	preds, err := e.be.EvaluateAllInto(id, spec, arrival, candidates, out)
	e.tr.setCount(sp, len(preds))
	e.tr.end(sp)
	return preds, err
}

// tracedMember records one span around each call the dispatcher makes
// on a federation member while deciding or gossiping. While an Evaluate is open its span is
// published as the lane's parent, so the member-side scheduler span
// (recorded in the member's handler goroutine) nests under the RPC.
type tracedMember struct {
	fed.Member
	tr   *tracer
	lane int
}

func (m *tracedMember) Evaluate(req agent.Request) (agent.Candidate, error) {
	sp := m.tr.begin(spLiveEvaluate, int64(req.JobID), m.lane, m.tr.parentFor(-1, int64(req.JobID)))
	m.tr.laneParent[m.lane].Store(sp)
	c, err := m.Member.Evaluate(req)
	m.tr.laneParent[m.lane].Store(-1)
	m.tr.end(sp)
	return c, err
}

func (m *tracedMember) Commit(req agent.Request, server string) (agent.Decision, error) {
	sp := m.tr.begin(spLiveCommit, int64(req.JobID), m.lane, m.tr.parentFor(-1, int64(req.JobID)))
	d, err := m.Member.Commit(req, server)
	m.tr.end(sp)
	return d, err
}

func (m *tracedMember) Submit(req agent.Request) (agent.Decision, error) {
	sp := m.tr.begin(spLiveSubmit, int64(req.JobID), m.lane, m.tr.parentFor(-1, int64(req.JobID)))
	d, err := m.Member.Submit(req)
	m.tr.end(sp)
	return d, err
}

func (m *tracedMember) Summary() (fed.Summary, error) {
	sp := m.tr.begin(spLiveSummary, -1, m.lane, -1)
	s, err := m.Member.Summary()
	m.tr.end(sp)
	return s, err
}

// The dispatcher discovers a member's optional capabilities by type
// assertion, which an embedding wrapper would hide; forward the two the
// federation runtime relies on (relay streaming, partition bootstrap).

func (m *tracedMember) RelaySince(after uint64) (relay.Delta, bool, error) {
	if rs, ok := m.Member.(interface {
		RelaySince(uint64) (relay.Delta, bool, error)
	}); ok {
		return rs.RelaySince(after)
	}
	return relay.Delta{}, false, nil
}

func (m *tracedMember) Partition() ([]string, bool, error) {
	if ps, ok := m.Member.(interface {
		Partition() ([]string, bool, error)
	}); ok {
		return ps.Partition()
	}
	return nil, false, nil
}
