package cluster

// The dispatch core: one Dispatcher routes work over members that each
// own a partition of the server pool. The sharded Cluster is a
// Dispatcher over always-fresh in-process members (cluster.go); the
// federation (internal/fed) is the same Dispatcher over members behind
// a summary seam or a wire. Rotation, fan-out with commit on the
// winner, power-of-two-choices batch routing, the intake gate, the
// placed-record window, shed synthesis and the merged event stream
// exist here once. internal/fed's package doc describes the routing
// modes and the ordering argument for the released dispatch lock.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"casched/internal/agent"
	"casched/internal/fair"
	"casched/internal/relay"
	"casched/internal/sched"
	"casched/internal/stats"
	"casched/internal/task"
)

// ErrNoMembers is returned when no live (non-evicted) member is
// available to route to.
var ErrNoMembers = errors.New("fed: no live member")

// ErrUnreachable marks a member call that failed at the transport
// level (dial failure, timeout, broken connection) as opposed to a
// member that answered with a scheduling error. Member
// implementations wrap transport failures with it; only unreachable
// errors count toward a member's consecutive-failure eviction, so a
// healthy member rejecting bad requests is never evicted for them.
var ErrUnreachable = errors.New("fed: member unreachable")

// ErrUncertain marks the subset of unreachable errors where the
// request may nonetheless have been delivered and executed — a
// timeout after send, a connection that broke mid-call. A mutating
// call that fails this way must NOT be retried on another member
// (the placement could land twice); a dial failure, by contrast,
// provably never delivered anything and is safe to reroute.
// ErrUncertain wraps ErrUnreachable, so it also counts toward
// eviction.
var ErrUncertain = fmt.Errorf("fed: delivery uncertain: %w", ErrUnreachable)

// DispatcherConfig parameterizes a Dispatcher (fed.Config). The
// in-process shapes take it as Config.Dispatch, set by the options;
// a dispatcher over remote members takes it whole (NewDispatcher).
type DispatcherConfig struct {
	// Policy assigns servers to members (default Hash()).
	Policy ShardPolicy
	// Heuristic is the registry name of the heuristic every member
	// runs (required by NewDispatcher). The dispatcher needs it to
	// know whether scored fan-out applies; members started out of
	// process must be configured with the same heuristic.
	Heuristic string
	// Seed drives the dispatcher's routing sample only; each member
	// core carries its own seed (agent.Config.Seed, which New and
	// NewFederation copy here).
	Seed uint64
	// IntakeRate, when positive, is one dispatch-level token bucket of
	// IntakeRate tasks per experiment second, burst IntakeBurst
	// (default max(IntakeRate, 1)), before any member is consulted:
	// refused requests are shed with agent.ErrThrottled.
	IntakeRate  float64
	IntakeBurst float64
	// PlacedWindow, when positive, sweeps job→member placement records
	// older than this many experiment seconds, so lost completion
	// messages cost memory bounded by the window; a swept job completes
	// through its server's current member. Zero keeps every record
	// until its completion arrives.
	PlacedWindow float64
	// Relay turns on the live event relay: the dispatcher polls
	// each relay-capable member's decision/completion deltas, folding
	// them — plus optimistic local accounting for its own delegations —
	// onto the member's last gossiped summary (internal/relay.View).
	// Degraded-mode routing then prices each request on near-fresh
	// per-server projected-ready instants instead of frozen
	// power-of-two-choices. Off (the default) the dispatcher routes
	// exactly as before the relay existed, bit for bit. Members that do
	// not speak relay (old binaries, relay off member-side) are
	// detected and fall back to summary-only routing individually.
	Relay bool
	// RelayInterval is the minimum age before a submission pulls relay
	// deltas inline. 0 (the default) pulls on every submission — the
	// exact near-fresh mode the federation study measures. The TCP
	// runtime sets it to its relay tick and pulls in the background.
	RelayInterval time.Duration
	// RelayMaxConsecutive bounds consecutive delegations to one member
	// between relay/gossip view advances (default 8): a member whose
	// view stopped moving is demoted to last in the routing order, so
	// a wedged relay stream cannot re-create the herding the relay
	// exists to prevent.
	RelayMaxConsecutive int
	// StaleAfter is the summary age beyond which a member no longer
	// counts as fresh (default 2s). Any member gone stale degrades
	// Submit routing from exact fan-out to power-of-two-choices.
	StaleAfter time.Duration
	// SummaryInterval is the minimum age before a submission refreshes
	// a member's summary inline. 0 (the default) refreshes on every
	// submission — exact summaries, the in-process mode. Runtimes with
	// remote members set it to their gossip period and refresh in the
	// background.
	SummaryInterval time.Duration
	// MaxFailures is the consecutive-failure count that evicts a
	// member (default 3).
	MaxFailures int
	// ProbeInterval is the readmission probe period for evicted
	// members (default StaleAfter).
	ProbeInterval time.Duration
	// ReassignAfter, when positive, re-partitions a dead member's
	// servers among the survivors once its eviction has lasted this
	// long (ReassignDead, called from the gossip tick). 0 (the
	// default) keeps the pre-HA behavior: an evicted member's
	// partition waits for its return. Graceful departures (Leave)
	// always reassign immediately, regardless of this setting.
	ReassignAfter time.Duration
	// Now is the time source for summary freshness (default time.Now;
	// tests and the staleness study inject fakes).
	Now func() time.Time
	// spawn starts every goroutine the dispatcher runs member calls on:
	// summary fetches and probes, the seamed fan-out and sub-batches,
	// relay pulls and eachLive's per-member calls (default go f()). A
	// deterministic driver runs each body as a step it orders.
	spawn func(func())
}

// Defaults resolves zero values to the documented defaults.
func (cfg *DispatcherConfig) Defaults() {
	if cfg.Policy == nil {
		cfg.Policy = Hash()
	}
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = 2 * time.Second
	}
	if cfg.MaxFailures == 0 {
		cfg.MaxFailures = 3
	}
	if cfg.RelayMaxConsecutive == 0 {
		cfg.RelayMaxConsecutive = 8
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = cfg.StaleAfter
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.spawn == nil {
		cfg.spawn = func(f func()) { go f() }
	}
}

// placedRec is one dispatcher placement record: the member that
// committed a job, the server it landed on and when, for
// window-bounded retention. The server makes the record replayable:
// a standby dispatcher that mirrored it can answer a client's retried
// request with the original decision instead of placing the job a
// second time.
type placedRec struct {
	member int
	server string
	at     float64
}

// memberState is the dispatcher's bookkeeping for one member.
type memberState struct {
	m         Member
	summary   Summary
	fetched   time.Time // last successful summary refresh; zero = never
	fails     int       // consecutive transport failures
	evicted   bool
	evictedAt time.Time // when eviction happened (reassignment clock)
	left      bool      // departed gracefully; never probed or routed
	probed    time.Time // last readmission probe of an evicted member
	fetching  bool      // a summary fetch is in flight (outside the lock)
	unsub     func()    // event-stream cancel, for members that stream
	// live is the member's always-fresh capability (nil behind a summary
	// seam): its load signals are read in place, it is evaluated inline
	// and it is never refreshed, probed or evicted.
	live liveSignals
	// below is the member's belowEvaluator capability (nil without it).
	below belowEvaluator
	// fan is the member's seat in the seamed fan-out (startSeamedLocked).
	fan fanSlot

	// Relay state (Config.Relay; all zero/nil otherwise). view is the
	// near-fresh fold of the last summary plus relayed events plus
	// optimistic delegations; relayCap caches whether the member speaks
	// relay (0 unknown, 1 yes, -1 no); delegSeq counts delegations to
	// the member — the marker ordering optimistic entries against
	// summary fetches; consec counts delegations since the view last
	// advanced (the herding bound).
	view          *relay.View
	relayCap      int8
	relayFetched  time.Time
	relayFetching bool
	delegSeq      uint64
	consec        int
}

// MemberInfo is a diagnostic snapshot of one member's routing state.
type MemberInfo struct {
	Name string
	// Left reports a graceful departure (Fed.Leave): the member is out
	// of the pool and its partition has been reassigned; unlike an
	// eviction, no readmission probe runs (the member said goodbye).
	Left bool
	// Servers is the dispatcher's partition count for the member;
	// ReportedServers is what the member's last summary claimed. A
	// disagreement means the member lost (or never replayed) part of
	// its partition — the restart-drift signal an operator watches.
	Servers         int
	ReportedServers int
	InFlight        int
	Evicted         bool
	Fresh           bool
	SummaryAge      time.Duration
	// Relay diagnostics (meaningful only with Config.Relay on):
	// RelayCapable reports the member speaks relay; RelaySynced that
	// its view is currently routable; RelaySeq the member-ledger
	// sequence folded up to; RelayAge the time since the last
	// successful relay pull (MaxInt64 = never); RelayPending the
	// optimistic delegations not yet confirmed by relayed events.
	RelayCapable bool
	RelaySynced  bool
	RelaySeq     uint64
	RelayAge     time.Duration
	RelayPending int
	// Wire is the member wire's traffic per decision-path call (members
	// behind a counting wire, fed.Remote; zero otherwise).
	Wire WireStats
}

// Dispatcher is the dispatch layer over partition-owning members.
// Construct with NewDispatcher (fed.NewWithMembers), NewFederation or,
// over in-process shards, as the core of a Cluster (New); drive with
// AddServer, Submit/SubmitBatch, Complete/Report.
type Dispatcher struct {
	cfg    DispatcherConfig
	scored bool
	tag    string // error prefix: "fed", or "cluster" under a Cluster

	// mu is the dispatch lock: membership, routing state, summaries
	// and submissions up to their ordering point (package doc,
	// "Ordering").
	mu      sync.Mutex
	members []*memberState
	home    map[string]int    // server name -> member index
	counts  []int             // servers per member
	placed  map[int]placedRec // jobID -> placement record, evicted on completion
	rr      int               // rotation cursor for unscored heuristics
	rng     *stats.RNG        // power-of-two-choices sampling
	// epoch counts the submissions that took the dispatch lock. A
	// fan-out that released the lock to await its commit reads it on both
	// sides: unchanged means no other submission ran in between, so the
	// candidates it still holds were evaluated against the current
	// placements (submitFanoutLocked).
	epoch uint64
	// seamed counts the members without the always-fresh capability.
	// At zero a submission does no freshness work at all: no summary or
	// relay pull, no clock read, every member fresh by construction.
	seamed atomic.Int32
	// scratch holds the submissions' reusable working sets: one is taken
	// on entry and put back on return. A submission that released the
	// lock to await its commit still holds its own, so the next one takes
	// another; the list keeps up to maxScratch of them.
	scratch []*fanScratch
	// fanWG and fanReq are the seamed fan-out's group and its copy of the
	// request, read by the members' fan slots. One fan-out runs at a
	// time: it starts and waits under the dispatch lock.
	fanWG  sync.WaitGroup
	fanReq agent.Request
	// bucket is the dispatch-level intake limiter (nil = unlimited);
	// placedSwept is when the placed map was last swept (PlacedWindow).
	bucket      *fair.TokenBucket
	placedSwept float64
	// resume marks a dispatcher promoted from standby state: Submit
	// then answers requests whose job already has a replicated
	// placement record with the recorded decision instead of placing
	// again — the replay-dedup half of client failover. reassigned
	// counts servers moved off dead or departed members.
	resume     bool
	reassigned uint64
	// relayFolded counts relay events folded into member views;
	// relayRouted counts degraded-mode delegations priced by relay
	// views (vs summary-only p2c).
	relayFolded uint64
	relayRouted uint64

	// emu guards the merged event stream of event-streaming members.
	emu     sync.Mutex
	subs    map[int]func(agent.Event)
	nextSub int
}

// NewDispatcher constructs a Dispatcher over caller-supplied member
// handles (remote transports, test fakes). The configured heuristic
// name must match what the members run; members may also join later
// through AddMember.
func NewDispatcher(cfg DispatcherConfig, members []Member) (*Dispatcher, error) {
	if cfg.Heuristic == "" {
		return nil, errors.New("fed: config needs a heuristic")
	}
	proto, err := sched.ByName(cfg.Heuristic)
	if err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	_, scored := proto.(sched.ScoredScheduler)
	return newDispatcher(cfg, scored, "fed", members), nil
}

// newDispatcher builds the core. scored says whether the members'
// heuristic has a comparable objective (fan-out) or not (rotation).
func newDispatcher(cfg DispatcherConfig, scored bool, tag string, members []Member) *Dispatcher {
	cfg.Defaults()
	d := &Dispatcher{
		cfg:    cfg,
		scored: scored,
		tag:    tag,
		home:   make(map[string]int),
		placed: make(map[int]placedRec),
		subs:   make(map[int]func(agent.Event)),
		rng:    stats.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15),
	}
	if cfg.IntakeRate > 0 {
		d.bucket = fair.NewTokenBucket(cfg.IntakeRate, cfg.IntakeBurst)
	}
	for _, m := range members {
		d.addMemberLocked(m)
	}
	return d
}

// memberErr attributes a member call's error to the member.
func (d *Dispatcher) memberErr(m Member, err error) error {
	return fmt.Errorf("%s: member %s: %w", d.tag, m.Name(), err)
}

// AddMember registers a member handle with the dispatcher (a remote
// agent joining the federation). Idempotent by name: rejoining under
// an existing name replaces the handle, clears the old failure state
// and replays the member's server partition into the new handle —
// a restarted casagent comes back with an empty core, but the
// dispatcher still owns the partition map, so re-registration
// restores the servers it is responsible for. A non-nil error means
// part of the partition could not be replayed; the join should be
// retried (the replay is idempotent).
func (d *Dispatcher) AddMember(m Member) error {
	d.mu.Lock()
	idx := -1
	var partition []string
	for i, ms := range d.members {
		if ms.m.Name() != m.Name() {
			continue
		}
		idx = i
		d.setHandleLocked(ms, m)
		ms.fails = 0
		ms.evicted = false
		ms.left = false
		ms.fetched = time.Time{}
		if d.cfg.Relay {
			// The rejoined process has a fresh ledger: drop the old fold
			// and re-probe capability; the next summary rebases the view.
			ms.view = relay.NewView()
			ms.relayCap = 0
			ms.relayFetched = time.Time{}
			ms.consec = 0
		}
		for name, home := range d.home {
			if home == i {
				partition = append(partition, name)
			}
		}
		break
	}
	if idx < 0 {
		d.addMemberLocked(m)
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()

	// Replay the whole partition OUTSIDE the dispatch lock (each call
	// is a member RPC that may run to its timeout; routing for the
	// other members must not stall behind it) — every failure is
	// collected and surfaced rather than silently leaving the member
	// with a partial server set, and the replay stops early if the
	// member earns eviction mid-way. AddServer is idempotent by name
	// on the member side, so an in-process handle swap (where the
	// core kept its servers) is unharmed.
	var errs []error
	for _, name := range partition {
		if err := m.AddServer(name); err != nil {
			errs = append(errs, fmt.Errorf("%s: replay %s to member %s: %w", d.tag, name, m.Name(), err))
			d.mu.Lock()
			evicted := false
			if d.members[idx].m == m {
				d.markTransportLocked(idx, err)
				evicted = d.members[idx].evicted
			}
			d.mu.Unlock()
			if evicted {
				break
			}
		}
	}
	return errors.Join(errs...)
}

// addMemberLocked appends a new member slot. Caller holds d.mu (or is
// the constructor).
func (d *Dispatcher) addMemberLocked(m Member) {
	ms := &memberState{}
	ms.fan.d = d
	ms.fan.run = ms.fan.evaluate
	if d.cfg.Relay {
		ms.view = relay.NewView()
	}
	d.members = append(d.members, ms)
	d.counts = append(d.counts, 0)
	d.setHandleLocked(ms, m)
}

// setHandleLocked installs m as the slot's handle: the old handle's
// event subscription is cancelled, m's capabilities (event stream,
// always-fresh signals) read once, d.seamed recounted. Caller holds d.mu.
func (d *Dispatcher) setHandleLocked(ms *memberState, m Member) {
	if ms.unsub != nil {
		ms.unsub()
		ms.unsub = nil
	}
	ms.m = m
	ms.live, _ = m.(liveSignals)
	ms.below, _ = m.(belowEvaluator)
	if es, ok := m.(EventSource); ok {
		ms.unsub = es.Subscribe(d.forward)
	}
	var seamed int32
	for _, other := range d.members {
		if other.live == nil {
			seamed++
		}
	}
	d.seamed.Store(seamed)
}

// forward relays one member event into the merged stream. It runs on
// the emitting member's goroutine, for an in-process core with that
// core's lock held; emu serializes deliveries, so every subscriber
// observes one total order that preserves each member's commit order.
func (d *Dispatcher) forward(ev agent.Event) {
	d.emu.Lock()
	defer d.emu.Unlock()
	for _, fn := range d.subs {
		fn(ev)
	}
}

// Subscribe registers an observer on the merged event stream of every
// event-streaming member (in-process cores; remote members do not
// stream events over the wire) and returns its cancel function.
// Callbacks must be fast and must not call back into the dispatcher.
func (d *Dispatcher) Subscribe(fn func(agent.Event)) (cancel func()) {
	d.emu.Lock()
	defer d.emu.Unlock()
	id := d.nextSub
	d.nextSub++
	d.subs[id] = fn
	return func() {
		d.emu.Lock()
		defer d.emu.Unlock()
		delete(d.subs, id)
	}
}

// NumMembers returns the number of registered members (including
// evicted ones).
func (d *Dispatcher) NumMembers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.members)
}

// Member exposes one member handle for inspection.
func (d *Dispatcher) Member(i int) Member {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.members[i].m
}

// Members returns a diagnostic snapshot of every member's routing
// state.
func (d *Dispatcher) Members() []MemberInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	out := make([]MemberInfo, len(d.members))
	for i, ms := range d.members {
		age := time.Duration(math.MaxInt64)
		if !ms.fetched.IsZero() {
			age = now.Sub(ms.fetched)
		}
		info := MemberInfo{
			Name:            ms.m.Name(),
			Left:            ms.left,
			Servers:         d.counts[i],
			ReportedServers: ms.summary.Servers,
			InFlight:        ms.summary.InFlight,
			Evicted:         ms.evicted,
			Fresh:           d.freshLocked(ms, now),
			SummaryAge:      age,
		}
		if ms.view != nil {
			info.RelayCapable = ms.relayCap > 0
			info.RelaySynced = ms.view.Synced()
			info.RelaySeq = ms.view.Seq()
			info.RelayPending = ms.view.Pending()
			info.RelayAge = time.Duration(math.MaxInt64)
			if !ms.relayFetched.IsZero() {
				info.RelayAge = now.Sub(ms.relayFetched)
			}
		}
		if wc, ok := ms.m.(WireCounter); ok {
			info.Wire = wc.WireStats()
		}
		out[i] = info
	}
	return out
}

// Close cancels member event subscriptions and closes the member
// handles.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var errs []error
	for _, ms := range d.members {
		if ms.unsub != nil {
			ms.unsub()
			ms.unsub = nil
		}
		if err := ms.m.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// AddServer registers a server, routed to a member by the policy. A
// server the policy would hand to an evicted member is rerouted among the live members
// (the policy applied to the live subset), so registration keeps
// working while part of the federation is partitioned.
//
// Idempotent by name, and the idempotent path replays: re-registering
// an already-assigned server re-issues AddServer to its recorded
// member, which heals a member that missed the first add (an
// uncertain timeout, a restart). Assignments never move on
// re-registration — the disjoint-partition invariant holds even
// through delivery uncertainty, because an uncertain first add
// records the assignment before surfacing its error.
func (d *Dispatcher) AddServer(name string) error {
	d.mu.Lock()
	i, known := d.home[name]
	if !known {
		if i = d.assignLocked(name); i < 0 {
			d.mu.Unlock()
			return ErrNoMembers
		}
		// Record the assignment before the member call resolves its
		// outcome class: an uncertain failure (the add may have been
		// delivered) must pin the server to this member so a registration
		// retry replays to the same partition instead of creating an
		// overlapping one elsewhere. A certain failure (refused dial:
		// provably not delivered) unwinds the record so the retry can
		// reroute freely.
		d.home[name] = i
		d.counts[i]++
	}
	m := d.members[i].m
	d.mu.Unlock()
	err := m.AddServer(name)
	if err == nil {
		return nil
	}
	d.mu.Lock()
	if cur, ok := d.home[name]; !known && !errors.Is(err, ErrUncertain) && ok && cur == i {
		delete(d.home, name)
		d.counts[i]--
	}
	d.mu.Unlock()
	return d.callFailed(i, m, err)
}

// assignLocked picks the member a new server joins: the policy over
// every member or, when that names an evicted or departed one, over
// the live subset; -1 without a live member. Caller holds d.mu.
func (d *Dispatcher) assignLocked(name string) int {
	if len(d.members) == 0 {
		return -1
	}
	i := ClampIndex(d.cfg.Policy.Assign(name, d.counts), len(d.members))
	if d.members[i].evicted || d.members[i].left {
		return d.assignAmongLocked(name, d.liveLocked(nil))
	}
	return i
}

// assignAmongLocked applies the policy to the listed members only; -1
// for an empty list. Caller holds d.mu.
func (d *Dispatcher) assignAmongLocked(name string, live []int) int {
	if len(live) == 0 {
		return -1
	}
	sub := make([]int, len(live))
	for k, li := range live {
		sub[k] = d.counts[li]
	}
	return live[ClampIndex(d.cfg.Policy.Assign(name, sub), len(live))]
}

// callFailed books the error of a member call that ran outside the
// dispatch lock: it counts toward the slot's eviction only while the
// slot still holds the handle that was called (a rejoin may have
// swapped it, and the new process must not inherit the old one's
// failure), and it is returned attributed to the member. Caller must
// NOT hold d.mu.
func (d *Dispatcher) callFailed(i int, m Member, err error) error {
	d.mu.Lock()
	if d.members[i].m == m {
		d.markTransportLocked(i, err)
	}
	d.mu.Unlock()
	return d.memberErr(m, err)
}

// RemoveServer withdraws a server from its member's partition. The
// member call runs outside the dispatch lock, like AddServer's: a slow
// or partitioned member must not stall every submission for a
// transport timeout. The assignment is dropped only once the member
// answered, and only if it has not moved meanwhile.
func (d *Dispatcher) RemoveServer(name string) error {
	d.mu.Lock()
	i, ok := d.home[name]
	if !ok {
		d.mu.Unlock()
		return nil
	}
	m := d.members[i].m
	d.mu.Unlock()
	if err := m.RemoveServer(name); err != nil {
		return d.callFailed(i, m, err)
	}
	d.mu.Lock()
	if cur, ok := d.home[name]; ok && cur == i {
		delete(d.home, name)
		d.counts[i]--
	}
	d.mu.Unlock()
	return nil
}

// Servers returns every registered server in sorted order.
func (d *Dispatcher) Servers() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.home))
	for name := range d.home {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MemberOf returns the member index a server is assigned to.
func (d *Dispatcher) MemberOf(server string) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	i, ok := d.home[server]
	return i, ok
}

// InFlight returns the dispatcher's count of jobs it placed that have
// not yet reported completion — its own accounting, maintained even
// when a member dies between evaluation and the completion message.
func (d *Dispatcher) InFlight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.placed)
}

// markTransportLocked counts err toward eviction only when it is a
// transport failure (ErrUnreachable): a member that answered — even
// with a scheduling error — is alive. MaxFailures consecutive failures
// evict the member. Caller holds d.mu.
func (d *Dispatcher) markTransportLocked(i int, err error) {
	if !errors.Is(err, ErrUnreachable) {
		return
	}
	ms := d.members[i]
	ms.fails++
	if ms.fails >= d.cfg.MaxFailures && !ms.evicted {
		ms.evicted = true
		ms.evictedAt = d.cfg.Now()
		ms.probed = ms.evictedAt
	}
}

// markSuccessLocked resets the consecutive-failure count; a
// successful probe of an evicted member readmits it. Caller holds
// d.mu.
func (d *Dispatcher) markSuccessLocked(i int) {
	ms := d.members[i]
	ms.fails = 0
	ms.evicted = false
}

// freshLocked reports whether a member's summary is young enough for
// exact fan-out routing; an always-fresh member has no summary to age.
// Caller holds d.mu.
func (d *Dispatcher) freshLocked(ms *memberState, now time.Time) bool {
	return !ms.evicted && !ms.left &&
		(ms.live != nil || !ms.fetched.IsZero() && now.Sub(ms.fetched) <= d.cfg.StaleAfter)
}

// freshen is a submission's freshness step: every member whose summary
// is older than SummaryInterval is refreshed (in parallel), evicted
// members whose ProbeInterval elapsed are probed, and relay deltas
// older than RelayInterval are pulled. Over always-fresh members only
// there is nothing to bring up to date, and no lock or clock is
// touched. Caller must NOT hold d.mu.
func (d *Dispatcher) freshen() {
	if d.seamed.Load() > 0 {
		d.refresh(false)
		d.relayPull(false)
	}
}

// RefreshSummaries forces a summary fetch of every live member,
// regardless of SummaryInterval — the background gossip tick of the
// TCP runtime, and the staleness dial of the federation study.
// Evicted members are still only probed on the ProbeInterval
// schedule, so a dead member is not re-dialed on every tick.
func (d *Dispatcher) RefreshSummaries() {
	d.refresh(true)
}

// refresh collects the members due a summary fetch, performs the
// fetches OUTSIDE the dispatch lock (a slow or partitioned member
// must not stall routing for everyone else — its RPC can block for
// the full transport timeout), and re-locks to apply the results.
// A per-member in-flight flag keeps concurrent submissions from
// piling onto the same slow member: whoever loses the race simply
// routes on the summary it has, which is exactly the degraded-mode
// contract.
//
// Readmission probes of evicted members run on their own
// ProbeInterval schedule. On the inline (non-forced) path they are
// fire-and-forget — a submission must not wait a transport timeout
// on a member already known dead; the probe's result lands before a
// later submission. The forced path (the gossip tick, explicit
// RefreshSummaries) waits for them, since it runs off the dispatch
// path and deterministic drivers rely on it.
func (d *Dispatcher) refresh(force bool) {
	type fetch struct {
		i      int
		m      Member
		marker uint64
		wait   bool // false: a fire-and-forget probe
	}
	d.mu.Lock()
	now := d.cfg.Now()
	var fetches []fetch
	for i, ms := range d.members {
		if ms.fetching || ms.left || ms.live != nil {
			continue
		}
		if ms.evicted {
			if now.Sub(ms.probed) < d.cfg.ProbeInterval {
				continue
			}
			ms.probed = now
		} else if !force && !ms.fetched.IsZero() && now.Sub(ms.fetched) < d.cfg.SummaryInterval {
			continue
		}
		ms.fetching = true
		// The delegation marker is captured before the fetch starts:
		// a summary can only include delegations made before this
		// instant, so the relay view's rebase keeps optimistic entries
		// with later markers (see relay.View.Rebase).
		fetches = append(fetches, fetch{i, ms.m, ms.delegSeq, force || !ms.evicted})
	}
	d.mu.Unlock()
	if len(fetches) == 0 {
		return
	}

	var wg sync.WaitGroup
	for _, f := range fetches {
		if f.wait {
			wg.Add(1)
		}
		d.cfg.spawn(func() {
			s, err := f.m.Summary()
			d.applyFetch(f.i, f.m, s, err, f.marker)
			if f.wait {
				wg.Done()
			}
		})
	}
	wg.Wait()
}

// applyFetch records one summary-fetch outcome. The handle identity
// check discards results that describe a process the member slot has
// since been rejoined away from. Like every other member call, only
// transport failures count toward eviction — a member that answers
// its Summary with an application error is alive (it just never goes
// fresh, so routing treats it as permanently stale).
func (d *Dispatcher) applyFetch(i int, m Member, s Summary, err error, marker uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ms := d.members[i]
	ms.fetching = false
	if ms.m != m {
		return
	}
	if err != nil {
		d.markTransportLocked(i, err)
		return
	}
	ms.summary = s
	ms.fetched = d.cfg.Now()
	d.markSuccessLocked(i)
	if ms.view != nil {
		if s.HasRelay {
			ms.relayCap = 1
			ms.view.Rebase(relay.Base{
				InFlight: s.InFlight,
				Tenant:   s.TenantInFlight,
				Ready:    s.ServerReady,
				Seq:      s.RelaySeq,
			}, marker)
			ms.consec = 0
		} else {
			// The member answered without relay fields: an old binary or
			// relay off member-side. Route it from summaries alone.
			ms.relayCap = -1
			ms.view.Unsync()
		}
	}
}

// liveLocked appends the indexes of non-evicted, non-departed members
// to buf[:0]. Caller holds d.mu.
func (d *Dispatcher) liveLocked(buf []int) []int {
	buf = buf[:0]
	for i, ms := range d.members {
		if !ms.evicted && !ms.left {
			buf = append(buf, i)
		}
	}
	return buf
}

// fanScratch is one submission's reusable working set: the live member
// list and the fan-out's result and candidate-position slices.
type fanScratch struct {
	live      []int
	results   []evaluated
	remaining []int
}

// maxScratch bounds the working sets the dispatcher keeps for reuse:
// one per submission that can hold one at a time, the one deciding
// under the lock and those awaiting their commits.
const maxScratch = 8

// takeScratchLocked hands the calling submission a working set from the
// dispatcher's list (put back with putScratchLocked), or a new one when
// every kept one is held. Caller holds d.mu.
func (d *Dispatcher) takeScratchLocked() *fanScratch {
	n := len(d.scratch)
	if n == 0 {
		return new(fanScratch)
	}
	sc := d.scratch[n-1]
	d.scratch[n-1] = nil
	d.scratch = d.scratch[:n-1]
	return sc
}

func (d *Dispatcher) putScratchLocked(sc *fanScratch) {
	if len(d.scratch) < maxScratch {
		d.scratch = append(d.scratch, sc)
	}
}

// allFreshLocked reports whether every listed member is fresh. Caller
// holds d.mu.
func (d *Dispatcher) allFreshLocked(live []int) bool {
	if d.seamed.Load() == 0 {
		return true
	}
	now := d.cfg.Now()
	for _, i := range live {
		if !d.freshLocked(d.members[i], now) {
			return false
		}
	}
	return true
}

// shed synthesizes a dispatch-level shed event into the merged
// stream — for refusals no single member owns (the dispatcher's own
// intake bucket, fan-out deadline refusals where members only
// evaluate and must not emit).
func (d *Dispatcher) shed(req agent.Request, reason string) {
	d.forward(agent.ShedEvent(req, reason))
}

// notePlacedLocked records which member committed a job and the
// server it landed on, sweeping expired records when a retention
// window is set. Caller holds d.mu.
func (d *Dispatcher) notePlacedLocked(jobID, member int, server string, at float64) {
	d.placed[jobID] = placedRec{member: member, server: server, at: at}
	d.sweepPlacedLocked(at)
}

// sweepPlacedLocked evicts placement records older than the retention
// window (amortized: the full scan runs at most twice per window).
// Caller holds d.mu.
func (d *Dispatcher) sweepPlacedLocked(now float64) {
	window := d.cfg.PlacedWindow
	if window <= 0 || now-d.placedSwept < window/2 {
		return
	}
	d.placedSwept = now
	cutoff := now - window
	for id, rec := range d.placed {
		if rec.at < cutoff {
			delete(d.placed, id)
		}
	}
}

// Submit routes one task. Fresh members select exact fan-out (every
// live member evaluates, commit on the winner; always-fresh members
// are fresh by construction); a stale or partitioned member degrades
// routing to power-of-two-choices over the last-known summaries,
// delegating the whole decision to the chosen member. Heuristics
// without a comparable objective rotate over eligible members.
//
// With an intake limit configured, requests the dispatch-level bucket
// refuses are shed with agent.ErrThrottled before any member RPC. A
// request no member can finish by its deadline (admission on,
// fan-out mode) is shed with agent.ErrDeadlineUnmet.
func (d *Dispatcher) Submit(req agent.Request) (agent.Decision, error) {
	d.freshen()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.epoch++
	// Replay dedup, checked before the intake gate: on a dispatcher
	// promoted from standby state, a request whose job already carries
	// a replicated placement record is a client retry of a decision the
	// old leader answered — return the recorded decision rather than
	// burning an intake token and placing the job twice.
	if d.resume {
		if rec, ok := d.placed[req.JobID]; ok && rec.server != "" {
			return agent.Decision{JobID: req.JobID, Server: rec.server}, nil
		}
	}
	if d.bucket != nil && !d.bucket.Take(req.Arrival) {
		d.shed(req, agent.ShedThrottled)
		return agent.Decision{}, fmt.Errorf("%s: job %d: %w", d.tag, req.JobID, agent.ErrThrottled)
	}
	if len(d.members) == 1 && d.members[0].live != nil {
		// A sole always-fresh member takes the whole decision: there is
		// no other partition to compare with, no failure to account for,
		// and Complete finds it without a placement record.
		return d.members[0].m.Submit(req)
	}
	sc := d.takeScratchLocked()
	defer d.putScratchLocked(sc)
	sc.live = d.liveLocked(sc.live)
	if len(sc.live) == 0 {
		return agent.Decision{}, ErrNoMembers
	}
	if !d.scored {
		return d.submitRotateLocked(req, sc.live)
	}
	if d.allFreshLocked(sc.live) {
		return d.submitFanoutLocked(req, sc)
	}
	return d.submitDegradedLocked(req, sc.live)
}

// eligibleLocked is the dispatcher's eligibility probe: member i holds
// servers and one of them solves spec. A probe that fails is counted
// against the member and its error collected. Caller holds d.mu.
func (d *Dispatcher) eligibleLocked(i int, spec *task.Spec, errs *[]error) bool {
	if d.counts[i] == 0 {
		return false
	}
	ok, err := d.members[i].m.CanSolve(spec)
	if err != nil {
		d.markTransportLocked(i, err)
		*errs = append(*errs, d.memberErr(d.members[i].m, err))
	}
	return ok && err == nil
}

// submitRotateLocked delegates one whole decision to a rotating
// eligible member — the unscored-heuristic path: fanning such a
// heuristic out would advance its state on members that never commit
// and starve servers. live is filtered in place. Caller holds d.mu.
func (d *Dispatcher) submitRotateLocked(req agent.Request, live []int) (agent.Decision, error) {
	eligible := live[:0]
	var errs []error
	for _, i := range live {
		if d.eligibleLocked(i, req.Spec, &errs) {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		if len(errs) > 0 {
			return agent.Decision{}, errors.Join(errs...)
		}
		return agent.Decision{}, agent.ErrUnschedulable
	}
	i := eligible[d.rr%len(eligible)]
	d.rr++
	dec, err := d.members[i].m.Submit(req)
	if err != nil {
		d.markTransportLocked(i, err)
		return agent.Decision{}, d.memberErr(d.members[i].m, err)
	}
	d.markSuccessLocked(i)
	d.notePlacedLocked(req.JobID, i, dec.Server, req.Arrival)
	return dec, nil
}

// submitFanoutLocked is the fresh-mode exact path: parallel Evaluate
// on every live member, commit on the best-scored candidate. Caller
// holds d.mu, and holds it again on return; in between the lock is
// released exactly while a started commit is awaited (commitLocked: a
// member with the CommitStarter capability serves the commit before
// anything issued to it later, so the next submission's fan-out may
// overlap this one's commit round trip and still evaluate against the
// committed state — internal/fed's package doc, "Ordering", has the
// argument). Over members whose commit is a function call the lock is
// never released.
//
// A commit that fails (the member died between Evaluate and Commit)
// marks the failure and drops that candidate; the decision never
// half-commits and the dispatcher's in-flight accounting records only
// real commits. An uncertain failure is surfaced. After a rejection or
// a failed dial nothing committed, and the decision goes to the
// next-best candidate of the same fan-out — unless another submission
// took the dispatch lock while it was released (d.epoch moved): that
// one may have placed a job the remaining candidates were not
// evaluated against, so the fan-out is run again over the members that
// have not refused this request (at most once per member). It is run
// again, too, when a member was beaten under a ceiling
// (evaluateAllLocked): its own best was never asked for, and may be the
// next-best. The member handle is read before the lock is released and
// compared after, as Report does: a rejoin may have swapped it, and the
// new process must not inherit the old one's success or failure.
//
// The error contract mirrors htm.Manager.EvaluateAll: as long as one
// member produces a winner the decision commits — a member that cannot
// evaluate excludes only its own partition; member errors surface only
// when every member fails.
func (d *Dispatcher) submitFanoutLocked(req agent.Request, sc *fanScratch) (agent.Decision, error) {
	live := sc.live
	var errs []error
	deadlineBlocked := false
	var refused []int // members whose commit of this request failed
	for len(live) > 0 {
		blocked, beaten, evalErrs := d.evaluateAllLocked(req, live, sc)
		results, remaining := sc.results, sc.remaining
		errs = append(errs, evalErrs...)
		deadlineBlocked = deadlineBlocked || blocked
		exact := true
		for exact && len(remaining) > 0 {
			// Winner among the remaining candidates: primary objective,
			// then tie objective; remaining ties keep the earlier member
			// (stable).
			best := 0
			for p := 1; p < len(remaining); p++ {
				if BetterCandidate(results[remaining[p]].cand, results[remaining[best]].cand) {
					best = p
				}
			}
			k := remaining[best]
			i := live[k]
			m := d.members[i].m
			epoch := d.epoch
			dec, err := d.commitLocked(m, req, results[k].cand.Server)
			current := d.members[i].m == m
			if err == nil {
				if current {
					d.markSuccessLocked(i)
				}
				d.notePlacedLocked(req.JobID, i, dec.Server, req.Arrival)
				return dec, nil
			}
			errs = append(errs, fmt.Errorf("%s: commit on member %s: %w", d.tag, m.Name(), err))
			if current {
				d.markTransportLocked(i, err)
			}
			if errors.Is(err, ErrUncertain) {
				// The member may have committed before the transport gave
				// up. Committing the job elsewhere could place it twice,
				// so surface the error instead — if the commit did land,
				// the completion still reaches the member through the
				// server-home fallback in Complete, keeping its core
				// consistent.
				return agent.Decision{}, errors.Join(errs...)
			}
			// Either the member answered with a rejection (membership
			// changed between Evaluate and Commit) or the dial itself
			// failed — in both cases nothing committed, so falling back to
			// the next-best candidate is safe.
			remaining = append(remaining[:best], remaining[best+1:]...)
			refused = append(refused, i)
			exact = d.epoch == epoch && !beaten
		}
		if exact {
			break
		}
		live = live[:0]
		for _, i := range d.liveLocked(nil) {
			if !slices.Contains(refused, i) {
				live = append(live, i)
			}
		}
	}
	if len(errs) > 0 {
		return agent.Decision{}, errors.Join(errs...)
	}
	if deadlineBlocked {
		d.shed(req, agent.ShedDeadline)
		return agent.Decision{}, fmt.Errorf("%s: job %d: %w", d.tag, req.JobID, agent.ErrDeadlineUnmet)
	}
	return agent.Decision{}, agent.ErrUnschedulable
}

// commitLocked commits req on m. A member with the CommitStarter
// capability has the commit started under the lock — its ordering
// point — and the lock released while the answer travels; any other
// member's Commit (a function call, or a wire that gives no order) runs
// whole with the lock held. Caller holds d.mu, and holds it on return.
func (d *Dispatcher) commitLocked(m Member, req agent.Request, server string) (agent.Decision, error) {
	cs, ok := m.(CommitStarter)
	if !ok {
		return m.Commit(req, server)
	}
	p := cs.StartCommit(req, server)
	d.mu.Unlock()
	dec, err := p.Wait()
	d.mu.Lock()
	return dec, err
}

// evaluated is one member's answer to a fan-out Evaluate.
type evaluated struct {
	cand agent.Candidate
	err  error
}

// evaluateAllLocked is the fan-out half of submitFanoutLocked: Evaluate
// on every listed member, into sc. Always-fresh members are evaluated
// inline, in turn, in the caller's goroutine — handing a microsecond
// projection to another goroutine costs more than the projection —
// while members whose Evaluate blocks on I/O each get a goroutine,
// started first so the round trips overlap the inline work. sc.results
// is indexed like live; sc.remaining lists the positions that produced
// a candidate. A member that cannot solve the task or meet its deadline
// is left out (deadlineBlocked reports the latter: members do not emit
// on Evaluate, so if all are blocked the dispatcher synthesizes the
// shed); any other failure is returned and counted toward eviction.
//
// When every member is evaluated inline, each one after the first that
// produced a candidate is evaluated below the Score of the best
// candidate so far, the one BetterCandidate's chain over the earlier
// answers holds (agent.Core.EvaluateBelow), and a member that answers
// agent.ErrBeaten is left out too: none of its candidates could replace
// that best one, so leaving it out leaves the chain's winner as it was
// (the package doc's "Ceiling" paragraph has the argument). beaten
// reports that some member was left out this way, so the other
// candidates are no longer all the runners-up. Caller holds d.mu.
func (d *Dispatcher) evaluateAllLocked(req agent.Request, live []int, sc *fanScratch) (deadlineBlocked, beaten bool, errs []error) {
	res := append(sc.results[:0], make([]evaluated, len(live))...)
	seamed := d.seamed.Load() > 0
	if seamed {
		d.startSeamedLocked(req, live, res)
	}
	best := -1
	for k, i := range live {
		ms := d.members[i]
		switch {
		case ms.live == nil:
			continue
		case best >= 0 && !seamed && ms.below != nil:
			res[k].cand, res[k].err = ms.below.EvaluateBelow(req, res[best].cand.Score)
		default:
			res[k].cand, res[k].err = ms.m.Evaluate(req)
		}
		if res[k].err == nil && (best < 0 || BetterCandidate(res[k].cand, res[best].cand)) {
			best = k
		}
	}
	if seamed {
		d.fanWG.Wait()
	}
	remaining := sc.remaining[:0]
	for k, r := range res {
		switch {
		case r.err == nil:
			remaining = append(remaining, k)
		case r.err == agent.ErrBeaten:
			beaten = true
		case errors.Is(r.err, agent.ErrDeadlineUnmet):
			// A per-member exclusion, like ErrUnschedulable: another
			// member's partition may still meet the deadline.
			deadlineBlocked = true
		case !errors.Is(r.err, agent.ErrUnschedulable):
			errs = append(errs, d.memberErr(d.members[live[k]].m, r.err))
			d.markTransportLocked(live[k], r.err)
		}
	}
	sc.results, sc.remaining = res, remaining
	return deadlineBlocked, beaten, errs
}

// startSeamedLocked starts Evaluate on every listed member behind a
// seam: each member's fan slot is pointed at its entry of res and its
// bound run spawned (DispatcherConfig.spawn), all reading the request
// from d.fanReq and joining d.fanWG. Nothing is allocated per decision:
// the slots, their bound bodies and the group live as long as the
// dispatcher. Caller holds d.mu until d.fanWG.Wait returns, so no second
// fan-out can repoint a slot or overwrite the request while a body runs.
func (d *Dispatcher) startSeamedLocked(req agent.Request, live []int, res []evaluated) {
	d.fanReq = req
	for k, i := range live {
		if ms := d.members[i]; ms.live == nil {
			ms.fan.m, ms.fan.out = ms.m, &res[k]
			d.fanWG.Add(1)
			d.cfg.spawn(ms.fan.run)
		}
	}
}

// fanSlot is one member's seat in the seamed fan-out: the handle to
// evaluate on and the result entry to fill, set by startSeamedLocked,
// and run, the slot's evaluate bound once when the member slot is made.
type fanSlot struct {
	d   *Dispatcher
	m   Member
	out *evaluated
	run func()
}

func (s *fanSlot) evaluate() {
	defer s.d.fanWG.Done()
	s.out.cand, s.out.err = s.m.Evaluate(s.d.fanReq)
}

// submitDegradedLocked is the stale-mode path: members ordered by
// power-of-two-choices over the last-known summaries — or, with the
// relay on and views synced, by the estimated completion of this
// request on each member's best server (relayOrderLocked) — and the
// decision delegated whole to the first eligible member that accepts
// it. Caller holds d.mu.
func (d *Dispatcher) submitDegradedLocked(req agent.Request, live []int) (agent.Decision, error) {
	order, viaRelay := d.relayOrderLocked(req, live)
	if !viaRelay {
		order = d.orderLocked(req.Arrival, live, req.Tenant)
	}
	var errs []error
	deadlineBlocked := false
	for _, i := range order {
		if !d.eligibleLocked(i, req.Spec, &errs) {
			continue
		}
		dec, err := d.members[i].m.Submit(req)
		if err != nil {
			if errors.Is(err, agent.ErrUnschedulable) {
				continue // membership changed member-side; try the next
			}
			if errors.Is(err, agent.ErrDeadlineUnmet) {
				// The member's own admission refused (and emitted its
				// shed); another member's partition may still make the
				// deadline, so keep walking the order.
				deadlineBlocked = true
				continue
			}
			errs = append(errs, d.memberErr(d.members[i].m, err))
			d.markTransportLocked(i, err)
			if errors.Is(err, ErrUncertain) {
				// Submit is evaluate+commit in one call, so an
				// uncertain transport failure may have committed
				// member-side. Trying the next member could place the
				// job twice; surface the error instead (completions
				// for a landed commit still route by server home, and
				// the member is evicted after MaxFailures such errors
				// anyway).
				return agent.Decision{}, errors.Join(errs...)
			}
			continue // rejection or failed dial: nothing committed
		}
		d.markSuccessLocked(i)
		d.notePlacedLocked(req.JobID, i, dec.Server, req.Arrival)
		d.noteDelegatedLocked(i, req, dec, viaRelay)
		return dec, nil
	}
	if len(errs) > 0 {
		return agent.Decision{}, errors.Join(errs...)
	}
	if deadlineBlocked {
		return agent.Decision{}, fmt.Errorf("%s: job %d: %w", d.tag, req.JobID, agent.ErrDeadlineUnmet)
	}
	return agent.Decision{}, agent.ErrUnschedulable
}

// SubmitBatch routes a burst of simultaneous arrivals hierarchically by
// power-of-two-choices over the members' backlog signals (orderLocked:
// the in-flight leader and one uniformly sampled member are compared
// on their projected backlog at the burst's arrival, read live from an
// always-fresh member's O(1) drain memos and from the last summary or
// relay view otherwise — fresh summaries make the two identical, stale
// ones approximate). The burst goes to the winner, which pipelines it
// through one lock acquisition of its own (agent.Core.SubmitBatch);
// requests the winner cannot solve fall to the next eligible member of
// the ranking, so a mixed burst fans out only as far as eligibility
// forces it. Failed requests yield zero Decisions with their errors
// joined, like agent.Core.SubmitBatch. Per-member admission and
// fair-share arbitration run inside each routed sub-batch.
// With an intake limit configured, the dispatch-level bucket gates
// the whole batch first (including the single-member shortcut);
// refused requests are shed with agent.ErrThrottled and never reach a
// member. Behind a summary seam, routing ranks members per tenant on
// the submitting tenant's own summarized backlog
// (Summary.TenantInFlight), so one tenant's burst does not steer
// another tenant's placements.
func (d *Dispatcher) SubmitBatch(reqs []agent.Request) ([]agent.Decision, error) {
	d.freshen()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.epoch++
	total := len(reqs)
	reqs, keep, errs := agent.IntakeGate(d.bucket, reqs, d.shed, d.tag)
	sc := d.takeScratchLocked()
	defer d.putScratchLocked(sc)
	sc.live = d.liveLocked(sc.live)
	liveMembers := sc.live
	if len(liveMembers) == 0 {
		return agent.Scatter(make([]agent.Decision, len(reqs)), keep, total), errors.Join(append(errs, ErrNoMembers)...)
	}
	if len(d.members) == 1 {
		// A single member: no routing, no sampling.
		i := liveMembers[0]
		out, err := d.members[i].m.SubmitBatch(reqs)
		if err != nil {
			d.markTransportLocked(i, err)
			errs = append(errs, err)
		}
		if len(out) != len(reqs) {
			out = make([]agent.Decision, len(reqs))
		}
		for k, dec := range out {
			if dec.Server != "" {
				d.notePlacedLocked(reqs[k].JobID, i, dec.Server, reqs[k].Arrival)
			}
		}
		return agent.Scatter(out, keep, total), errors.Join(errs...)
	}
	at := 0.0
	if len(reqs) > 0 {
		at = reqs[0].Arrival
	}
	// One routing order per tenant in the batch, memoized: each
	// tenant's requests walk members ranked on that tenant's own
	// backlog. Single-tenant batches reduce to the historical single
	// order (one memo entry, total-in-flight signal), and so do bursts
	// over always-fresh members only, whose live signal has no tenant
	// split.
	orders := make(map[string][]int)
	orderFor := func(tenant string) []int {
		if d.seamed.Load() == 0 {
			tenant = ""
		}
		if o, ok := orders[tenant]; ok {
			return o
		}
		o := d.orderLocked(at, liveMembers, tenant)
		orders[tenant] = o
		return o
	}

	assign := make([]int, len(reqs))
	subBatches := make(map[int][]int) // member -> request positions
	// Bursts overwhelmingly share task specs, so memoize the
	// eligibility probe per (member, spec) within the call — for
	// remote members each probe is an RPC under the dispatch lock.
	type solveKey struct {
		member int
		spec   *task.Spec
	}
	solvable := make(map[solveKey]bool)
	canSolve := func(i int, spec *task.Spec) bool {
		key := solveKey{i, spec}
		if ok, seen := solvable[key]; seen {
			return ok
		}
		ok := d.eligibleLocked(i, spec, &errs)
		solvable[key] = ok
		return ok
	}
	for k, req := range reqs {
		assign[k] = -1
		for _, i := range orderFor(req.Tenant) {
			if canSolve(i, req.Spec) {
				assign[k] = i
				subBatches[i] = append(subBatches[i], k)
				break
			}
		}
		if assign[k] < 0 {
			errs = append(errs, fmt.Errorf("%s: batch job %d: %w", d.tag, req.JobID, agent.ErrUnschedulable))
		}
	}

	out := make([]agent.Decision, len(reqs))
	memberErrs := make([]error, len(d.members)) // each sub-batch writes its own slot
	var wg sync.WaitGroup
	run := func(i int, positions []int) {
		sub := make([]agent.Request, len(positions))
		for k, pos := range positions {
			sub[k] = reqs[pos]
		}
		decs, err := d.members[i].m.SubmitBatch(sub)
		for k, pos := range positions {
			if k < len(decs) {
				out[pos] = decs[k]
			}
		}
		memberErrs[i] = err
	}
	// As in the fan-out: a goroutine per sub-batch that crosses a seam,
	// started first; always-fresh members run theirs inline, in member
	// order, so the merged event order is the same on every run.
	for i, positions := range subBatches {
		if d.members[i].live == nil {
			wg.Add(1)
			d.cfg.spawn(func() {
				defer wg.Done()
				run(i, positions)
			})
		}
	}
	for i, ms := range d.members {
		if positions := subBatches[i]; ms.live != nil && positions != nil {
			run(i, positions)
		}
	}
	wg.Wait()
	for i, err := range memberErrs {
		if err == nil {
			continue
		}
		errs = append(errs, d.memberErr(d.members[i].m, err))
		// Only transport failures count toward eviction; per-request
		// scheduling errors inside a delivered batch (even a batch
		// that failed wholesale, e.g. reused job ids) prove the member
		// answered.
		d.markTransportLocked(i, err)
	}
	for k, dec := range out {
		if dec.Server != "" {
			d.notePlacedLocked(reqs[k].JobID, assign[k], dec.Server, reqs[k].Arrival)
		}
	}
	return agent.Scatter(out, keep, total), errors.Join(errs...)
}

// orderLocked returns member indexes in routing-preference order for
// one decision at date at: the power-of-two-choices ranking
// (TwoChoicesOrder) over each member's own signal — an always-fresh
// member's live in-flight count and O(1) min-ProjectedReady drain memo,
// any other member's relay view or last-known summary. Fresh summaries
// carry exactly the values read live, which is what keeps the two
// kinds in decision parity.
//
// The in-flight signal is per tenant when summaries carry a tenant
// split: a member busy with another tenant's work still ranks as idle
// for this tenant, so weighted arbitration member-side is not undone
// by routing every tenant onto the globally-least-loaded member.
// Untenanted traffic against untenanted summaries degenerates to the
// historical total-in-flight ranking (the per-tenant count of "" IS
// the total), which is what keeps single-tenant routing bit-for-bit.
// Caller holds d.mu.
func (d *Dispatcher) orderLocked(at float64, live []int, tenant string) []int {
	return TwoChoicesOrder(live,
		func(i int) int { return d.counts[i] },
		func(i int) int {
			ms := d.members[i]
			if ms.live != nil {
				return ms.live.InFlight()
			}
			if ms.view != nil && ms.view.Synced() {
				// Relay on and folded: the near-fresh in-flight (with
				// optimistic delegations) replaces the frozen summary.
				return ms.view.TenantInFlight(tenant)
			}
			s := ms.summary
			if s.TenantInFlight != nil {
				return s.TenantInFlight[tenant]
			}
			return s.InFlight
		},
		func(i int) (float64, bool) {
			ms := d.members[i]
			if ms.live != nil {
				return ms.live.MinProjectedReady()
			}
			if ms.view != nil && ms.view.Synced() {
				if r, ok := ms.view.MinReady(); ok {
					return r, true
				}
			}
			s := ms.summary
			return s.MinReady, s.HasMinReady
		},
		at, d.rng)
}

// Complete feeds a completion message to the member that placed the
// job (falling back to the server's owning member). The dispatcher's
// in-flight record is consumed only once the member acknowledged: a
// completion the member never saw leaves the job in its core, so
// dropping the record early would let the two accountings diverge —
// keeping it means a redelivered completion still routes to the
// right member.
func (d *Dispatcher) Complete(jobID int, server string, at float64) error {
	d.mu.Lock()
	i, fromPlaced, ok := d.ownerLocked(jobID, server)
	if !ok {
		d.mu.Unlock()
		return nil
	}
	m := d.members[i].m
	d.mu.Unlock()
	if err := m.Complete(jobID, server, at); err != nil {
		return d.callFailed(i, m, err)
	}
	if fromPlaced {
		// The member acknowledged: the record is consumed, whichever
		// handle the slot holds by now.
		d.mu.Lock()
		if cur, ok := d.placed[jobID]; ok && cur.member == i {
			delete(d.placed, jobID)
		}
		d.mu.Unlock()
	}
	return nil
}

// ownerLocked resolves the member a completion belongs to: the one
// that placed the job or, for jobs the dispatcher never routed and
// routed ones whose record aged out of the retention window, the
// server's current owner — the degraded-but-correct path as long as
// the server has not moved since placement. Caller holds d.mu.
func (d *Dispatcher) ownerLocked(jobID int, server string) (i int, fromPlaced, ok bool) {
	if rec, placed := d.placed[jobID]; placed {
		return rec.member, true, true
	}
	i, ok = d.home[server]
	return i, false, ok
}

// Report feeds a monitor report to the server's owning member.
func (d *Dispatcher) Report(server string, load, at float64) error {
	d.mu.Lock()
	i, ok := d.home[server]
	var m Member
	if ok {
		// Copy the handle under the lock: a concurrent rejoin may swap
		// the member slot's handle (AddMember), and the RPC below runs
		// unlocked.
		m = d.members[i].m
	}
	d.mu.Unlock()
	if m == nil {
		return nil
	}
	if err := m.Report(server, load, at); err != nil {
		return d.callFailed(i, m, err)
	}
	return nil
}

// FinalPredictions merges the end-of-run projections of members that
// expose them (in-process members).
func (d *Dispatcher) FinalPredictions() map[int]float64 {
	d.mu.Lock()
	members := make([]Member, len(d.members))
	for i, ms := range d.members {
		members[i] = ms.m
	}
	d.mu.Unlock()
	out := make(map[int]float64)
	for _, m := range members {
		if fp, ok := m.(FinalPredictor); ok {
			for id, p := range fp.FinalPredictions() {
				out[id] = p
			}
		}
	}
	return out
}
