package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"casched"
	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/sched"
)

// workload is one set of inputs and the deployment shape it drives.
type workload struct {
	Name      string  `json:"name"`
	Why       string  `json:"-"`
	Shape     string  `json:"shape"` // core | cluster | cluster-batch | fed-wire
	Servers   int     `json:"servers"`
	Heuristic string  `json:"heuristic"`
	Shards    int     `json:"shards,omitempty"`
	Members   int     `json:"members,omitempty"`
	Callers   int     `json:"callers"`
	MeanGap   float64 `json:"mean_gap_s,omitempty"` // experiment seconds between arrivals (bursts)
	Burst     int     `json:"burst"`
	RetireLag int     `json:"retire_lag"` // W: a task is retired this many decisions after it was placed
	Warmup    int     `json:"warmup_decisions"`
	Tenants   bool    `json:"tenants,omitempty"`
	// ClockScale is the live clock's experiment seconds per wall second
	// (fed-wire only, where arrival dates come from the wall clock).
	ClockScale float64 `json:"clock_scale,omitempty"`
}

// htmRetention is the completed-record window of the in-process
// deployments, in experiment seconds: long runs keep bounded memory.
const htmRetention = 50

// deploySeed seeds the deployments' own tie-breaking. It is fixed: the
// benchmark seed shapes the requests only.
const deploySeed = 1

var workloads = []workload{
	{
		Name: "core_light_1024", Shape: "core", Servers: 1024, Heuristic: "HMCT",
		Callers: 1, MeanGap: 0.55, Burst: 1, RetireLag: 1024, Warmup: 1536,
		Why: "one core, 1024 mostly idle servers: projection (htm, fluid) is nearly all the time and linear in pool size, the regime candidate pruning targets",
	},
	{
		Name: "cluster_busy_128", Shape: "cluster", Servers: 128, Heuristic: "MSF", Shards: 4,
		Callers: 1, MeanGap: 1.0, Burst: 1, RetireLag: 4096, Warmup: 5000,
		Why: "same projection code at 0.9 utilisation (several live jobs per trace) plus the sharded fan-out: pruning helps little, a fluid data-layout change most",
	},
	{
		Name: "fed_wire_128", Shape: "fed-wire", Servers: 128, Heuristic: "HMCT", Members: 4,
		Callers: 2, Burst: 1, RetireLag: 256, Warmup: 1024, ClockScale: 10000,
		Why: "loopback TCP end to end: client RPC, dispatcher lock across five member round trips and frame coding outweigh projection, so wire and lock work shows only here",
	},
	{
		Name: "batch_tenants_128", Shape: "cluster-batch", Servers: 128, Heuristic: "HMCT", Shards: 4,
		Callers: 1, MeanGap: 16.0, Burst: 16, RetireLag: 4096, Warmup: 5008, Tenants: true,
		Why: "bursts of 16 with tenants, admission and intake limit on: projection is amortised, so bookkeeping, fair arbitration and allocation dominate; guards SubmitBatch",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engine is the driving surface the in-process deployments share.
type engine interface {
	Submit(agent.Request) (agent.Decision, error)
	SubmitBatch([]agent.Request) ([]agent.Decision, error)
	Complete(jobID int, server string, at float64) agent.Completion
}

// inproc is one in-process deployment: the engine, its cores (one per
// shard) and the server-to-shard map.
type inproc struct {
	wl      workload
	eng     engine
	cores   []*agent.Core
	shardOf map[string]int
	close   func()
}

// buildInproc builds the workload's deployment through the public
// constructors and registers its servers. With a tracer every core's
// heuristic is wrapped to record spans.
func buildInproc(wl workload, tr *tracer) (*inproc, error) {
	d := &inproc{wl: wl, shardOf: map[string]int{}, close: func() {}}
	names := serverNames(wl.Servers)
	if wl.Shape == "core" {
		s, err := newScheduler(wl.Heuristic, tr, 0)
		if err != nil {
			return nil, err
		}
		core, err := casched.NewAgentCore(casched.AgentCoreConfig{
			Scheduler: s, Seed: deploySeed, HTMWorkers: 1, HTMRetention: htmRetention})
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			core.AddServer(n)
			d.shardOf[n] = 0
		}
		d.eng, d.cores = core, []*agent.Core{core}
		return d, nil
	}
	lane := 0
	opts := []casched.ClusterOption{
		casched.WithShards(wl.Shards),
		// The cluster builds its shards in order, so the nth call of
		// the factory serves shard n.
		cluster.WithSchedulerFactory(func() (sched.Scheduler, error) {
			s, err := newScheduler(wl.Heuristic, tr, lane)
			lane++
			return s, err
		}),
		casched.WithSeed(deploySeed),
		casched.WithHTMWorkers(1),
		casched.WithHTMRetention(htmRetention),
	}
	if wl.Tenants {
		opts = append(opts,
			casched.WithTenantShares(tenantShares),
			casched.WithAdmission(true),
			// Far above the offered rate (burst/gap = 1 task per
			// experiment second), so the bucket is exercised and never
			// refuses.
			casched.WithIntakeLimit(1e6, 1e6))
	}
	cl, err := casched.NewCluster(opts...)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		cl.AddServer(n)
	}
	for i := 0; i < cl.NumShards(); i++ {
		d.cores = append(d.cores, cl.Shard(i))
		for _, n := range cl.Shard(i).Servers() {
			d.shardOf[n] = i
		}
	}
	d.eng, d.close = cl, cl.Close
	return d, nil
}

// driver feeds one in-process deployment from one stream, retiring each
// task RetireLag decisions after it was placed and checking every reply.
type driver struct {
	d      *inproc
	st     *stream
	ring   *retireRing
	reqs   []agent.Request
	tr     *tracer
	placed []string // the servers chosen by the first replayDecisions decisions, in order
	// perShard counts committed placements per shard.
	perShard []int64
}

func newDriver(d *inproc, seed uint64, tr *tracer) *driver {
	return &driver{d: d, tr: tr,
		st:       newStream(seed, d.wl.Servers, d.wl.MeanGap, d.wl.Tenants),
		ring:     newRetireRing(d.wl.RetireLag),
		placed:   make([]string, 0, replayDecisions),
		reqs:     make([]agent.Request, d.wl.Burst),
		perShard: make([]int64, len(d.cores))}
}

// checkReply reports whether dec answers req with a registered server
// that can run the task.
func (dr *driver) checkReply(req *agent.Request, dec agent.Decision) bool {
	if dec.JobID != req.JobID {
		return false
	}
	sh, registered := dr.d.shardOf[dec.Server]
	if !registered {
		return false
	}
	if _, solves := req.Spec.Cost(dec.Server); !solves {
		return false
	}
	dr.perShard[sh]++
	return true
}

func (dr *driver) retire(dec agent.Decision) {
	if old, ok := dr.ring.push(placed{dec.JobID, dec.Server}); ok {
		sp := dr.tr.begin(spAgentComplete, int64(old.job), 0, -1)
		dr.d.eng.Complete(old.job, old.server, dr.st.now)
		dr.tr.end(sp)
	}
	if len(dr.placed) < cap(dr.placed) {
		dr.placed = append(dr.placed, dec.Server)
	}
}

// generate draws the next call's requests from the stream.
func (dr *driver) generate() {
	if dr.d.wl.Burst == 1 {
		dr.st.next(&dr.reqs[0])
	} else {
		dr.st.nextBurst(dr.reqs)
	}
}

// submit makes one timed call with the generated requests (a decision,
// or a burst of them) and returns its latency and how many of its
// decisions failed.
func (dr *driver) submit() (lat time.Duration, failed int64) {
	lo := int64(dr.reqs[0].JobID)
	if dr.d.wl.Burst == 1 {
		root := spAgentSubmit
		if len(dr.d.cores) > 1 {
			root = spClusterSubmit
		}
		sp := dr.tr.beginRoot(0, root, lo, lo+1)
		t0 := time.Now()
		dec, err := dr.d.eng.Submit(dr.reqs[0])
		lat = time.Since(t0)
		dr.tr.endRoot(0, sp)
		if err != nil || !dr.checkReply(&dr.reqs[0], dec) {
			return lat, 1
		}
		dr.retire(dec)
		return lat, 0
	}
	sp := dr.tr.beginRoot(0, spClusterBatch, lo, lo+int64(len(dr.reqs)))
	t0 := time.Now()
	decs, err := dr.d.eng.SubmitBatch(dr.reqs)
	lat = time.Since(t0)
	dr.tr.endRoot(0, sp)
	if err != nil || len(decs) != len(dr.reqs) {
		return lat, int64(len(dr.reqs))
	}
	for i := range decs {
		if !dr.checkReply(&dr.reqs[i], decs[i]) {
			failed++
			continue
		}
		dr.retire(decs[i])
	}
	return lat, failed
}

func (dr *driver) step() (time.Duration, int64) {
	dr.generate()
	return dr.submit()
}

// warm runs n untimed decisions.
func (dr *driver) warm(n int) error {
	for done := 0; done < n; done += dr.d.wl.Burst {
		if _, failed := dr.step(); failed > 0 {
			return fmt.Errorf("%s: warm-up decision %d failed", dr.d.wl.Name, done)
		}
	}
	return nil
}

// caller returns the closed-loop load generator over this driver.
func (dr *driver) caller() caller {
	return func(start time.Time, stop *atomic.Bool, limit int64, rec *sampleRec) (attempted, failed int64) {
		burst := int64(dr.d.wl.Burst)
		for calls := int64(0); !stop.Load() && (limit <= 0 || calls < limit); calls++ {
			lat, f := dr.step()
			attempted += burst
			failed += f
			if f == 0 {
				rec.add(int64(time.Since(start)), int64(lat))
			}
		}
		return attempted, failed
	}
}
