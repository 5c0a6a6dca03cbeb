package fed

import (
	"fmt"
	"testing"
	"time"

	"casched/internal/agent"
	"casched/internal/task"
)

// allocRuns is the number of timed calls each figure averages over, and
// of the cycles that warm a deployment up first: the members' traces
// grow their slices to a steady occupancy, the connections' pools fill
// and the interning tables learn the server names.
const allocRuns = 200

// TestFramedWireAllocs pins what a federated decision allocates on the
// member wire once the connection is warm, counting both ends: the
// dispatcher's Remote and the member agent serving it run in this
// process. An Evaluate and a Complete allocate nothing. A commit
// allocates no more than the member's own core does to place the job,
// measured on the same core in the same steady state without the wire.
// One seamed Dispatcher.Submit over four framed members, fan-out and
// commit, allocates no more than that either.
func TestFramedWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const nServers, window = 16, 8
	spec := task.Synthetic(0, nServers)
	names := make([]string, nServers)
	for i := range names {
		names[i] = fmt.Sprintf("sv%02d", i)
	}

	t.Run("remote", func(t *testing.T) {
		m := startMember(t)
		r := NewRemote("m", m.Addr(), 5*time.Second)
		defer r.Close()
		for _, name := range names {
			if err := r.AddServer(name); err != nil {
				t.Fatal(err)
			}
		}
		// A cycle commits job id on a server in rotation and completes
		// the job committed window cycles before, so the member's traces
		// stay at a steady occupancy.
		id, now := 0, 0.0
		placed := make([]string, window)
		commit := func(place func(agent.Request, string) (agent.Decision, error), complete func(int, string, float64) error) func() {
			return func() {
				now += 0.55
				if id >= window {
					if err := complete(id-window, placed[id%window], now); err != nil {
						t.Fatal(err)
					}
				}
				dec, err := place(req(id, spec, now), names[id%nServers])
				if err != nil {
					t.Fatal(err)
				}
				placed[id%window] = dec.Server
				id++
			}
		}
		overWire := commit(func(rq agent.Request, server string) (agent.Decision, error) {
			return r.StartCommit(rq, server).Wait()
		}, r.Complete)
		core := m.Core()
		inPlace := commit(core.Commit, func(job int, server string, at float64) error {
			core.Complete(job, server, at)
			return nil
		})
		for i := 0; i < allocRuns; i++ {
			overWire()
		}

		evaluate := testing.AllocsPerRun(allocRuns, func() {
			if _, err := r.Evaluate(req(id, spec, now)); err != nil {
				t.Fatal(err)
			}
		})
		wire := testing.AllocsPerRun(allocRuns, overWire)
		place := testing.AllocsPerRun(allocRuns, inPlace)
		// Completions alone: commit allocRuns+1 jobs, then retire them.
		first := id
		for i := 0; i <= allocRuns; i++ {
			if _, err := r.Commit(req(id, spec, now), names[id%nServers]); err != nil {
				t.Fatal(err)
			}
			id++
		}
		next := first
		complete := testing.AllocsPerRun(allocRuns, func() {
			if err := r.Complete(next, names[next%nServers], now); err != nil {
				t.Fatal(err)
			}
			next++
		})
		t.Logf("allocations per call: Evaluate %v, Complete %v, StartCommit+Wait and Complete %v (the core in place: %v)",
			evaluate, complete, wire, place)
		if evaluate != 0 {
			t.Errorf("Evaluate over the wire allocates %v per call, want 0", evaluate)
		}
		if complete != 0 {
			t.Errorf("Complete over the wire allocates %v per call, want 0", complete)
		}
		if wire > place {
			t.Errorf("a commit over the wire allocates %v per cycle, the member's core in place %v", wire, place)
		}
	})

	t.Run("dispatcher", func(t *testing.T) {
		remotes := make([]Member, 4)
		cores := make([]*agent.Core, len(remotes))
		for k := range remotes {
			m := startMember(t)
			remotes[k] = NewRemote(fmt.Sprintf("m%d", k), m.Addr(), 5*time.Second)
			cores[k] = m.Core()
		}
		d, err := NewWithMembers(Config{
			Heuristic:       "HMCT",
			Seed:            7,
			StaleAfter:      time.Hour,
			SummaryInterval: time.Hour,
		}, remotes)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for _, name := range names {
			if err := d.AddServer(name); err != nil {
				t.Fatal(err)
			}
		}
		d.RefreshSummaries()
		id, now := 0, 0.0
		placed := make([]string, window)
		submit := func() {
			now += 0.55
			if id >= window {
				if err := d.Complete(id-window, placed[id%window], now); err != nil {
					t.Fatal(err)
				}
			}
			dec, err := d.Submit(req(id, spec, now))
			if err != nil {
				t.Fatal(err)
			}
			placed[id%window] = dec.Server
			id++
		}
		for i := 0; i < allocRuns; i++ {
			submit()
		}
		got := testing.AllocsPerRun(allocRuns, submit)
		// The same cycle in place, on the member that placed each job:
		// what the members' cores allocate for these decisions.
		home := func(server string) *agent.Core {
			i, ok := d.MemberOf(server)
			if !ok {
				t.Fatalf("%s has no member", server)
			}
			return cores[i]
		}
		inPlace := testing.AllocsPerRun(allocRuns, func() {
			now += 0.55
			if id >= window {
				home(placed[id%window]).Complete(id-window, placed[id%window], now)
			}
			server := names[id%nServers]
			dec, err := home(server).Commit(req(id, spec, now), server)
			if err != nil {
				t.Fatal(err)
			}
			placed[id%window] = dec.Server
			id++
		})
		t.Logf("allocations per decision: seamed Submit over four framed members %v (the members' cores in place: %v)", got, inPlace)
		if got > inPlace {
			t.Errorf("a seamed Submit over four framed members allocates %v per decision, the members' cores in place %v", got, inPlace)
		}
	})
}
