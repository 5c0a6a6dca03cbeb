package main

import (
	"fmt"

	"casched/internal/agent"
	"casched/internal/stats"
	"casched/internal/task"
)

// tenants are the three tenants of the multi-tenant workload, served
// under tenantShares.
var (
	tenants      = [3]string{"gold", "silver", "bronze"}
	tenantShares = map[string]float64{"gold": 4, "silver": 2, "bronze": 1}
)

// farDeadline is added to an arrival date to give a deadline admission
// always accepts: the workloads are sized so that no operation fails.
const farDeadline = 1e6

// stream is the seeded request generator: a Poisson arrival process
// (exponential gaps of the workload's mean, in experiment seconds) over
// the three synthetic task families. Everything the program sees comes
// from here, and the same seed gives the same requests.
type stream struct {
	rng     *stats.RNG
	specs   [3]*task.Spec
	meanGap float64
	tenants bool
	now     float64
	nextID  int
}

func newStream(seed uint64, servers int, meanGap float64, withTenants bool) *stream {
	s := &stream{rng: stats.NewRNG(seed), meanGap: meanGap, tenants: withTenants}
	for f := range s.specs {
		s.specs[f] = task.Synthetic(f, servers)
	}
	return s
}

// next fills req with the next arrival.
func (s *stream) next(req *agent.Request) {
	s.now += s.rng.Exp(s.meanGap)
	s.fill(req)
}

// nextBurst fills reqs with one burst: len(reqs) arrivals on one date.
func (s *stream) nextBurst(reqs []agent.Request) {
	s.now += s.rng.Exp(s.meanGap)
	for i := range reqs {
		s.fill(&reqs[i])
	}
}

func (s *stream) fill(req *agent.Request) {
	*req = agent.Request{JobID: s.nextID, TaskID: s.nextID,
		Spec: s.specs[s.rng.Intn(len(s.specs))], Arrival: s.now}
	if s.tenants {
		req.Tenant = tenants[s.rng.Intn(len(tenants))]
		req.Deadline = s.now + farDeadline
	}
	s.nextID++
}

// serverNames returns sv00.., the names the synthetic specs price.
func serverNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("sv%02d", i)
	}
	return names
}

// placed remembers where a job went, so it can be retired later.
type placed struct {
	job    int
	server string
}

// retireRing holds the last lag placements; push returns the one placed
// lag decisions earlier once the ring is full.
type retireRing struct {
	buf []placed
	n   int
}

func newRetireRing(lag int) *retireRing { return &retireRing{buf: make([]placed, lag)} }

func (r *retireRing) push(p placed) (old placed, ok bool) {
	i := r.n % len(r.buf)
	old, ok = r.buf[i], r.n >= len(r.buf)
	r.buf[i] = p
	r.n++
	return old, ok
}
