// Package live is the reproduction's "real environment": a NetSolve-
// like deployment in which the agent, the servers and the clients are
// separate concurrent components talking over real TCP connections,
// and tasks execute in scaled wall-clock time under an explicit
// processor-sharing executor.
//
// Unlike the discrete-event simulator (internal/grid), nothing here is
// synchronized on a global virtual clock: requests race, load reports
// lag, the executor advances in quanta, and goroutine scheduling adds
// jitter — the same error sources that separate the paper's real
// completion dates from the HTM's simulated ones in Table 1.
//
// # Wires
//
// Two protocols share an agent's listener, told apart by the first byte
// of a connection (frameserver.go).
//
// The member wire (frame.go) carries all thirteen calls a federation
// dispatcher makes on a member — Evaluate, Commit, Submit, SubmitBatch,
// Summary, Relay, Complete, CanSolve, AddServer, RemoveServer, Report,
// Fence, Partition — as frames on one FIFO connection per dispatcher
// handle, served in the order they were written. That order is what the
// dispatcher's released-lock argument rests on (internal/fed,
// "Ordering"), so no member call has a second route. Dispatcher and
// members speak exactly one frame version and upgrade together.
//
// Everything else stays on net/rpc with gob: the "Agent" service
// (servers registering and reporting, clients asking for a placement),
// a member's Fed.Join/Fed.Leave to a dispatcher, and the "HA" election
// service between dispatcher replicas. These are control calls — once
// per process, per task or per lease, none ordered against a decision —
// and they face peers the framed wire does not serve: clients and
// servers that are not dispatchers, and dispatchers, which are not
// members. net/rpc's concurrent serving and self-describing encoding
// are the right trade there.
//
// The frame scratch is bounded by construction: a connection keeps one
// read and one write buffer per end (frameHandler.rbuf/wbuf,
// FrameClient.wbuf and its read loop's buffer) and one payload buffer
// per pooled call slot (frameCall.payload); each is dropped once the
// frame that grew it past maxFrameScratch (64 KiB) is handled, so a
// relay resync or a large SubmitBatch does not pin up to maxFrameLen
// (16 MiB) for the life of the connection. The interning table stops at
// maxIntern entries and the request window at frameWindow calls.
package live

import (
	"sync"
	"time"
)

// Clock maps wall-clock time to experiment (virtual) seconds with a
// configurable speed-up, so a 300-virtual-second metatask can run in
// under a second of wall time.
type Clock struct {
	start time.Time
	scale float64 // virtual seconds per wall second

	mu     sync.Mutex
	frozen bool
	at     float64
}

// NewClock starts a clock at virtual time zero. scale is the number of
// virtual seconds elapsing per wall second; 1 runs in real time, 1000
// compresses 1000 experiment seconds into one wall second.
func NewClock(scale float64) *Clock {
	if scale <= 0 {
		scale = 1
	}
	return &Clock{start: time.Now(), scale: scale}
}

// Scale returns the virtual-per-wall-second factor.
func (c *Clock) Scale() float64 { return c.scale }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen {
		return c.at
	}
	return time.Since(c.start).Seconds() * c.scale
}

// SleepUntil blocks until virtual time v (returns immediately if v has
// passed).
func (c *Clock) SleepUntil(v float64) {
	for {
		now := c.Now()
		if now >= v {
			return
		}
		wall := time.Duration((v - now) / c.scale * float64(time.Second))
		if wall < 50*time.Microsecond {
			wall = 50 * time.Microsecond
		}
		time.Sleep(wall)
	}
}

// Sleep blocks for d virtual seconds.
func (c *Clock) Sleep(d float64) { c.SleepUntil(c.Now() + d) }

// Freeze pins Now at its current value (test helper).
func (c *Clock) Freeze() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.frozen {
		c.at = time.Since(c.start).Seconds() * c.scale
		c.frozen = true
	}
}
