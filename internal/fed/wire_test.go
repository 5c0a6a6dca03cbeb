package fed

// Framed-wire tests: capability negotiation against members that
// predate Member.WireCaps (the negotiated-down path must stay on gob
// and work), and placement parity between the framed and gob
// protocols against a real live member — the framing changes the
// transport, not one bit of the decisions.

import (
	"errors"
	"net"
	"net/rpc"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/live"
	"casched/internal/sched"
	"casched/internal/task"
	"casched/internal/workload"
)

// legacyMemberService mimics a member binary older than the framed
// wire: it serves the gob Member methods the dispatcher needs but has
// no WireCaps, so the probe answers rpc's "can't find method".
type legacyMemberService struct {
	core *agent.Core
}

func (s *legacyMemberService) Submit(args live.MemberTaskArgs, reply *live.MemberDecisionReply) error {
	spec, err := task.Resolve(args.Problem, args.Variant)
	if err != nil {
		return err
	}
	dec, err := s.core.Submit(agent.Request{
		JobID: args.JobID, TaskID: args.TaskID, Spec: spec, Arrival: args.Arrival,
	})
	if errors.Is(err, agent.ErrUnschedulable) {
		reply.Unschedulable = true
		return nil
	}
	if err != nil {
		return err
	}
	*reply = live.MemberDecisionReply{Server: dec.Server, Predicted: dec.Predicted, HasPrediction: dec.HasPrediction}
	return nil
}

func (s *legacyMemberService) Summary(_ live.Ack, reply *live.MemberSummaryReply) error {
	ls := s.core.LoadSummary()
	reply.InFlight = ls.InFlight
	reply.Servers = ls.Servers
	reply.MinReady, reply.HasMinReady = ls.MinReady, ls.HasMinReady
	return nil
}

// TestWireNegotiationDownToGob pins the compatibility contract: a
// member without Member.WireCaps keeps working over gob, the probe's
// "can't find method" answer is cached so the handle asks exactly
// once, and no call observes a transport error from the probe.
func TestWireNegotiationDownToGob(t *testing.T) {
	core, err := agent.New(agent.Config{Scheduler: sched.NewHMCT(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	core.AddServer("artimon")

	srv := rpc.NewServer()
	if err := srv.RegisterName("Member", &legacyMemberService{core: core}); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()

	r := NewRemote("legacy", lis.Addr().String(), time.Second)
	defer r.Close()
	spec := task.WasteCPU(200)
	dec, err := r.Submit(agent.Request{JobID: 1, TaskID: 1, Spec: spec, Arrival: 0})
	if err != nil {
		t.Fatalf("submit to legacy member: %v", err)
	}
	if dec.Server != "artimon" {
		t.Fatalf("legacy member placed on %q", dec.Server)
	}
	r.mu.Lock()
	unsupported, wire := r.wireUnsupported, r.wire
	r.mu.Unlock()
	if !unsupported {
		t.Fatal("negotiated-down answer was not cached")
	}
	if wire != nil {
		t.Fatal("a framed connection exists against a legacy member")
	}
	if sum, err := r.Summary(); err != nil || sum.Servers != 1 {
		t.Fatalf("summary over gob after negotiation-down: %+v, %v", sum, err)
	}
}

// TestWireNegotiationUp pins the upgrade path: against a real live
// member the probe negotiates the framed connection, and hot calls
// flow over it.
func TestWireNegotiationUp(t *testing.T) {
	s, err := sched.ByName("HMCT")
	if err != nil {
		t.Fatal(err)
	}
	m, err := live.StartAgent(live.AgentConfig{Scheduler: s, Clock: live.NewClock(0), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Engine().AddServer("artimon")

	r := NewRemote("m1", m.Addr(), time.Second)
	defer r.Close()
	if _, err := r.Summary(); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	wire, unsupported := r.wire, r.wireUnsupported
	r.mu.Unlock()
	if wire == nil || unsupported {
		t.Fatalf("framed wire not negotiated against a current member (wire=%v unsupported=%v)", wire != nil, unsupported)
	}
}

// TestFramedMatchesGobPlacements drives the same metatask through two
// identical TCP members — one handle framed, one pinned to gob — and
// requires bit-identical placement sequences and predictions, and the
// same jobs retired by the completions.
func TestFramedMatchesGobPlacements(t *testing.T) {
	servers := []string{"artimon", "spinnaker", "soyotte", "valette"}
	newMember := func() (*live.Agent, *Remote) {
		s, err := sched.ByName("HMCT")
		if err != nil {
			t.Fatal(err)
		}
		m, err := live.StartAgent(live.AgentConfig{Scheduler: s, Clock: live.NewClock(0), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, srv := range servers {
			m.Engine().AddServer(srv)
		}
		return m, NewRemote(m.Addr(), m.Addr(), time.Second)
	}
	mGob, rGob := newMember()
	defer mGob.Close()
	defer rGob.Close()
	rGob.ForceGob()
	mFramed, rFramed := newMember()
	defer mFramed.Close()
	defer rFramed.Close()

	mt := workload.MustGenerate(workload.Set2(48, 12, 7))
	for i, tk := range mt.Tasks {
		req := agent.Request{JobID: tk.ID, TaskID: tk.ID, Spec: tk.Spec, Arrival: tk.Arrival}
		want, err := rGob.Submit(req)
		if err != nil {
			t.Fatalf("gob submit %d: %v", tk.ID, err)
		}
		got, err := rFramed.Submit(req)
		if err != nil {
			t.Fatalf("framed submit %d: %v", tk.ID, err)
		}
		if got.Server != want.Server || got.Predicted != want.Predicted || got.HasPrediction != want.HasPrediction {
			t.Fatalf("job %d: framed %+v vs gob %+v", tk.ID, got, want)
		}
		if i%4 == 3 {
			at := tk.Arrival + 15
			if want.HasPrediction {
				at = want.Predicted
			}
			if err := rGob.Complete(want.JobID, want.Server, at); err != nil {
				t.Fatal(err)
			}
			if err := rFramed.Complete(got.JobID, got.Server, at); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Complete crosses the framed wire too (msgComplete): both members
	// retired the same jobs.
	if g, f, want := mGob.Core().InFlight(), mFramed.Core().InFlight(), len(mt.Tasks)-len(mt.Tasks)/4; g != want || f != want {
		t.Fatalf("in flight after completions: gob member %d, framed member %d, want %d", g, f, want)
	}
	r := rFramed
	r.mu.Lock()
	framedUsed := r.wire != nil
	r.mu.Unlock()
	if !framedUsed {
		t.Fatal("framed handle fell back to gob — parity proved nothing")
	}
}
