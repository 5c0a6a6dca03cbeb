package fed

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/ha"
	"casched/internal/live"
	"casched/internal/task"
)

// ServerConfig parameterizes a federation dispatcher runtime
// (cmd/casfed).
type ServerConfig struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Heuristic is the federation-wide heuristic name; joining members
	// must run the same one.
	Heuristic string
	// Policy assigns registering servers to members (default hash).
	Policy cluster.ShardPolicy
	// Seed drives routing randomness.
	Seed uint64
	// Clock stamps arrival dates for client requests.
	Clock *live.Clock
	// StaleAfter, SummaryInterval, MaxFailures tune the dispatcher
	// (see Config). SummaryInterval additionally paces the background
	// gossip loop (default 500ms).
	StaleAfter      time.Duration
	SummaryInterval time.Duration
	MaxFailures     int
	// Timeout bounds each member RPC (default 2s).
	Timeout time.Duration
	// IntakeRate, when positive, bounds the federation's raw intake
	// with one dispatch-level token bucket (IntakeRate tasks per
	// virtual second, burst IntakeBurst).
	IntakeRate  float64
	IntakeBurst float64
	// Relay turns on the live event relay (see Config.Relay): the
	// runtime pulls each relay-capable member's decision/completion
	// deltas on a background RelayInterval tick (default 100ms) and
	// degrades stale-mode routing to near-fresh relay pricing instead
	// of frozen power-of-two-choices. Members that do not speak relay
	// fall back individually.
	Relay bool
	// RelayInterval paces both the background relay loop and the
	// inline pull gate (default 100ms).
	RelayInterval time.Duration
	// RelayMaxConsecutive bounds consecutive delegations to one member
	// between relay view advances (default 8).
	RelayMaxConsecutive int
	// PlacedWindow bounds the dispatcher's placement records to a
	// trailing window of experiment seconds (Config.PlacedWindow); it
	// also bounds the standby follower's replicated placement mirror,
	// so both sides of a failover retain the same horizon.
	PlacedWindow float64
	// ReassignAfter re-partitions a dead member's servers among the
	// survivors once its eviction lasted this long (Config.
	// ReassignAfter); only the current leader reassigns.
	ReassignAfter time.Duration
	// HA, when non-nil, runs this dispatcher as one replica of a
	// replicated deployment: it joins the election, mirrors member
	// relay ledgers while standing by, and serves clients only while
	// it holds the leader lease. Nil (the default) keeps the pre-HA
	// single-dispatcher behavior bit for bit.
	HA *HAConfig
}

// HAConfig parameterizes a dispatcher replica's election membership.
type HAConfig struct {
	// ID is this replica's unique name in the peer set.
	ID string
	// Peers maps peer ID to dispatcher RPC address, excluding this
	// replica. May start empty and be installed later with SetHAPeers
	// (test deployments learn addresses only after listening).
	Peers map[string]string
	// Lease and Heartbeat tune the election (ha.Config; defaults 2s
	// and Lease/4).
	Lease     time.Duration
	Heartbeat time.Duration
	// Standby defers this replica's first campaign so the designated
	// primary wins election one deterministically.
	Standby bool
}

// Server is the federation dispatcher runtime: a TCP listener exposing
// the client-facing "Agent" service (Register/Schedule/TaskDone/
// LoadReport — clients and computational servers cannot tell a
// federation from a plain agent) plus the "Fed" service member agents
// join through. Deployment order mirrors NetSolve's: dispatcher
// first, then members (casagent -join), then servers, then clients.
type Server struct {
	cfg ServerConfig
	d   *Dispatcher

	mu    sync.Mutex
	addrs map[string]string // server name -> RPC address

	lis      net.Listener
	srv      *rpc.Server
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// conns tracks accepted client connections so Close severs them: a
	// closed replica must go dark, not keep serving established
	// connections as if it still led — that is what forces the live
	// layer's dispatcher books to rotate onto the new leader.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// HA state (nil/zero without ServerConfig.HA). leading gates the
	// client-facing RPC surface: a replica that does not hold the
	// lease answers "fed: not leader" with the known leader as a
	// redirect hint, which the live-layer dispatcher books follow.
	// term is the fencing stamp mutating member calls carry.
	elector  *ha.Elector
	follower *ha.Follower
	leading  atomic.Bool
	term     atomic.Uint64
}

// StartServer launches a federation dispatcher.
func StartServer(cfg ServerConfig) (*Server, error) {
	if cfg.Heuristic == "" {
		return nil, errors.New("fed: server needs a heuristic")
	}
	if cfg.Clock == nil {
		return nil, errors.New("fed: server needs a clock")
	}
	if cfg.SummaryInterval == 0 {
		cfg.SummaryInterval = 500 * time.Millisecond
	}
	if cfg.Relay && cfg.RelayInterval == 0 {
		cfg.RelayInterval = 100 * time.Millisecond
	}
	d, err := NewWithMembers(Config{
		Heuristic:           cfg.Heuristic,
		Policy:              cfg.Policy,
		Seed:                cfg.Seed,
		StaleAfter:          cfg.StaleAfter,
		SummaryInterval:     cfg.SummaryInterval,
		MaxFailures:         cfg.MaxFailures,
		IntakeRate:          cfg.IntakeRate,
		IntakeBurst:         cfg.IntakeBurst,
		Relay:               cfg.Relay,
		RelayInterval:       cfg.RelayInterval,
		RelayMaxConsecutive: cfg.RelayMaxConsecutive,
		PlacedWindow:        cfg.PlacedWindow,
		ReassignAfter:       cfg.ReassignAfter,
	}, nil)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		d:     d,
		addrs: make(map[string]string),
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fed: listen: %w", err)
	}
	s.lis = lis
	s.srv = rpc.NewServer()
	if err := s.srv.RegisterName("Fed", &FedService{s}); err != nil {
		lis.Close()
		return nil, fmt.Errorf("fed: rpc register: %w", err)
	}
	if err := s.srv.RegisterName("Agent", &FedAgentService{s}); err != nil {
		lis.Close()
		return nil, fmt.Errorf("fed: rpc register: %w", err)
	}
	if cfg.HA != nil {
		if cfg.HA.ID == "" {
			lis.Close()
			return nil, errors.New("fed: HA needs an elector ID")
		}
		if err := s.srv.RegisterName("HA", &HAService{s}); err != nil {
			lis.Close()
			return nil, fmt.Errorf("fed: rpc register: %w", err)
		}
		s.follower = ha.NewFollower(cfg.PlacedWindow)
		lease := cfg.HA.Lease
		if lease <= 0 {
			lease = 2 * time.Second
		}
		// The elector's backoff jitter must differ per replica even when
		// every replica is launched with the same -seed (the natural way
		// to deploy): identical jitter streams would re-collide campaigns
		// forever. Mixing the unique elector ID in decorrelates them.
		idh := fnv.New64a()
		idh.Write([]byte(cfg.HA.ID))
		s.elector = ha.New(ha.Config{
			ID:        cfg.HA.ID,
			Addr:      lis.Addr().String(),
			Peers:     cfg.HA.Peers,
			Lease:     cfg.HA.Lease,
			Heartbeat: cfg.HA.Heartbeat,
			Standby:   cfg.HA.Standby,
			Seed:      cfg.Seed ^ idh.Sum64(),
			Transport: haTransport{timeout: lease / 2},
			OnLeader:  s.promote,
			OnFollow:  s.demote,
		})
	} else {
		// Single-dispatcher deployment: always the leader, serving from
		// the first request — the pre-HA behavior.
		s.leading.Store(true)
	}
	go s.serve()
	s.wg.Add(1)
	go s.gossipLoop()
	if cfg.Relay {
		s.wg.Add(1)
		go s.relayLoop()
	}
	if cfg.Relay && cfg.HA != nil {
		s.wg.Add(1)
		go s.followLoop()
	}
	if s.elector != nil {
		s.elector.Start()
	}
	return s, nil
}

// SetHAPeers installs or replaces the election peer set (replica ID
// -> dispatcher address, excluding this replica). Deployments whose
// replica addresses are only known after all listeners are up (tests,
// ephemeral ports) start with an empty set and install it here.
func (s *Server) SetHAPeers(peers map[string]string) {
	if s.elector != nil {
		s.elector.SetPeers(peers)
	}
}

// Addr returns the dispatcher's RPC address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Dispatcher exposes the routing layer (diagnostics, studies).
func (s *Server) Dispatcher() *Dispatcher { return s.d }

// Close stops the listener, the background loops and the elector, and
// closes member handles. Safe to call more than once.
func (s *Server) Close() error {
	var err error
	s.stopOnce.Do(func() {
		close(s.stop)
		if s.elector != nil {
			s.elector.Close()
		}
		err = s.lis.Close()
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
		if derr := s.d.Close(); err == nil {
			err = derr
		}
	})
	return err
}

// Drain prepares a graceful shutdown (SIGTERM): stop serving clients,
// wait (bounded) for the placements this dispatcher routed to report
// completion, push one final summary refresh so the standbys' ledger
// heads are current, and resign leadership so a standby takes over
// immediately instead of waiting out the lease.
func (s *Server) Drain(timeout time.Duration) {
	wasLeading := s.leading.Swap(false)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && s.d.InFlight() > 0 {
		time.Sleep(20 * time.Millisecond)
	}
	s.d.RefreshSummaries()
	if wasLeading && s.elector != nil {
		s.elector.Resign()
	}
}

// HAStatus assembles the dispatcher's HA posture for telemetry.
func (s *Server) HAStatus() ha.Status {
	st := ha.Status{
		IsLeader:          s.leading.Load(),
		Term:              s.term.Load(),
		ReassignedServers: s.d.Reassigned(),
	}
	if s.elector != nil {
		term, _, leaderID, leaderAddr := s.elector.Snapshot()
		st.ID = s.cfg.HA.ID
		st.Term = term
		st.LeaderID = leaderID
		st.LeaderAddr = leaderAddr
	}
	if s.follower != nil {
		st.StandbyLag = s.follower.Lags()
	}
	return st
}

// promote is the elector's OnLeader callback: the takeover sequence,
// ordered for the no-double-placement guarantee. Fence first (members
// start refusing the deposed leader's term), then refresh summaries
// (current ledger heads), adopt every member's self-reported
// partition, and synchronously pull the members' ledgers into the
// follower mirror before adopting its placement map. Every commit the
// old leader completed landed in its member's ledger before the old
// leader could answer the client, so by the time a client's retry
// reaches this replica — it only redials after the promotion makes
// this replica answer — the placement record is already adopted and
// Submit's resume dedup returns the original decision.
func (s *Server) promote(term uint64) {
	s.term.Store(term)
	s.d.FenceMembers(term)
	s.d.RefreshSummaries()
	s.d.AdoptPartitions()
	if s.follower != nil {
		s.d.FollowRelay(s.follower)
		s.d.AdoptPlacements(s.follower.Placements())
	}
	s.leading.Store(true)
}

// demote is the elector's OnFollow callback: stop serving and adopt
// the higher term so any still-in-flight member call carries a stamp
// the members' fences will reject in favor of the new leader's.
func (s *Server) demote(_, _ string, term uint64) {
	s.leading.Store(false)
	s.term.Store(term)
}

// notLeader is the redirect prefix standby replicas answer
// client-facing calls with; the live layer's dispatcher books match
// it (and follow the leader= hint) to rotate onto the leader. The
// string is wire protocol: changing it strands old clients on
// standbys.
const notLeader = "fed: not leader"

// leaderCheck admits client-facing calls only on the leader,
// redirecting with the known leader's address otherwise.
func (s *Server) leaderCheck() error {
	if s.leading.Load() {
		return nil
	}
	if s.elector != nil {
		if _, _, _, leaderAddr := s.elector.Snapshot(); leaderAddr != "" {
			return fmt.Errorf("%s; leader=%s", notLeader, leaderAddr)
		}
	}
	return errors.New(notLeader)
}

// serve accepts RPC connections until the listener closes.
func (s *Server) serve() {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		go func() {
			s.srv.ServeConn(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
		}()
	}
}

// gossipLoop periodically refreshes every member's summary — the
// federation's load-summary exchange, which also probes evicted
// members for readmission.
func (s *Server) gossipLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SummaryInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.d.RefreshSummaries()
			// Only the leader mutates membership: standbys observe, the
			// leader heals (re-partitioning servers off members whose
			// eviction outlasted ReassignAfter).
			if s.leading.Load() {
				s.d.ReassignDead()
			}
		}
	}
}

// followLoop is the standby's replication tick: mirror every member's
// relay ledger into the follower's placement map so a promotion can
// resume the in-flight metatask. The leader skips the tick — its own
// placed map is the authoritative copy while it leads.
func (s *Server) followLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RelayInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if !s.leading.Load() {
				s.d.FollowRelay(s.follower)
			}
		}
	}
}

// relayLoop pulls relay deltas from every relay-capable member on the
// RelayInterval tick — the high-frequency, low-volume counterpart of
// the gossip loop, keeping the dispatcher's member views near-fresh
// between summaries.
func (s *Server) relayLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RelayInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.d.PullRelay()
		}
	}
}

// haTransport carries election traffic between dispatcher replicas:
// one bounded gob RPC per vote or heartbeat, dialed per call — an
// election message to a dead peer must fail fast and must never
// inherit a wedged connection's fate.
type haTransport struct{ timeout time.Duration }

func (t haTransport) call(addr, method string, args, reply any) error {
	nc, err := net.DialTimeout("tcp", addr, t.timeout)
	if err != nil {
		return err
	}
	c := rpc.NewClient(nc)
	defer c.Close()
	call := c.Go(method, args, reply, make(chan *rpc.Call, 1))
	timer := time.NewTimer(t.timeout)
	defer timer.Stop()
	select {
	case <-call.Done:
		return call.Error
	case <-timer.C:
		return fmt.Errorf("fed: ha %s to %s timed out", method, addr)
	}
}

func (t haTransport) RequestVote(_, peerAddr string, args ha.VoteArgs) (ha.VoteReply, error) {
	var reply live.HAVoteReply
	if err := t.call(peerAddr, "HA.Vote", live.HAVoteArgs{Candidate: args.Candidate, Term: args.Term}, &reply); err != nil {
		return ha.VoteReply{}, err
	}
	return ha.VoteReply{Granted: reply.Granted, Term: reply.Term}, nil
}

func (t haTransport) Heartbeat(_, peerAddr string, args ha.HeartbeatArgs) (ha.HeartbeatReply, error) {
	var reply live.HAHeartbeatReply
	if err := t.call(peerAddr, "HA.Heartbeat", live.HAHeartbeatArgs{
		Leader: args.Leader, Addr: args.Addr, Term: args.Term, Resign: args.Resign,
	}, &reply); err != nil {
		return ha.HeartbeatReply{}, err
	}
	return ha.HeartbeatReply{OK: reply.OK, Term: reply.Term}, nil
}

// HAService is the replica-facing RPC surface: the election protocol
// peers drive into this replica's elector.
type HAService struct{ s *Server }

// Vote handles a peer's RequestVote.
func (h *HAService) Vote(args live.HAVoteArgs, reply *live.HAVoteReply) error {
	r := h.s.elector.HandleVote(ha.VoteArgs{Candidate: args.Candidate, Term: args.Term})
	*reply = live.HAVoteReply{Granted: r.Granted, Term: r.Term}
	return nil
}

// Heartbeat handles the leader's lease assertion.
func (h *HAService) Heartbeat(args live.HAHeartbeatArgs, reply *live.HAHeartbeatReply) error {
	r := h.s.elector.HandleHeartbeat(ha.HeartbeatArgs{
		Leader: args.Leader, Addr: args.Addr, Term: args.Term, Resign: args.Resign,
	})
	*reply = live.HAHeartbeatReply{OK: r.OK, Term: r.Term}
	return nil
}

// FedService is the member-facing RPC surface.
type FedService struct{ s *Server }

// Join admits a member agent into the federation. The member's
// heuristic must match the dispatcher's: cross-member score
// comparison assumes one objective.
func (f *FedService) Join(args live.JoinArgs, _ *live.Ack) error {
	if args.Name == "" || args.Addr == "" {
		return errors.New("fed: join needs a name and an address")
	}
	if !strings.EqualFold(args.Heuristic, f.s.cfg.Heuristic) {
		return fmt.Errorf("fed: member %s runs %s, federation runs %s",
			args.Name, args.Heuristic, f.s.cfg.Heuristic)
	}
	r := NewRemote(args.Name, args.Addr, f.s.cfg.Timeout)
	if f.s.cfg.HA != nil {
		// Mutating member calls carry this replica's current term as the
		// fencing stamp; members refuse stamps older than the highest
		// they have admitted, so a deposed leader cannot keep placing.
		r.SetTermSource(f.s.term.Load)
	}
	if err := f.s.d.AddMember(r); err != nil {
		// A partial partition replay is surfaced to the joiner, which
		// can simply rejoin: the replay is idempotent.
		return err
	}
	// Pull the first summary immediately so a freshly joined member is
	// routable without waiting out a gossip tick.
	f.s.d.RefreshSummaries()
	return nil
}

// Leave departs a member gracefully. Only the leader reassigns the
// partition; a standby records the departure so a later promotion
// does not resurrect it. Members join and leave every replica, so
// each replica's membership view stays current without a replicated
// membership log.
func (f *FedService) Leave(args live.LeaveArgs, _ *live.Ack) error {
	if args.Name == "" {
		return errors.New("fed: leave needs a name")
	}
	if f.s.leading.Load() {
		return f.s.d.Leave(args.Name)
	}
	f.s.d.MarkLeft(args.Name)
	return nil
}

// FedAgentService speaks the client half of the live wire protocol on
// behalf of the federation, so casserver and casclient drive a
// federation unchanged.
type FedAgentService struct{ s *Server }

// Register routes a computational server into a member's partition
// via the shard policy and records its address for Schedule replies.
func (f *FedAgentService) Register(args live.RegisterArgs, _ *live.Ack) error {
	if err := f.s.leaderCheck(); err != nil {
		return err
	}
	f.s.mu.Lock()
	f.s.addrs[args.Name] = args.Addr
	f.s.mu.Unlock()
	return f.s.d.AddServer(args.Name)
}

// Schedule picks a server for a client request through the federated
// dispatcher.
func (f *FedAgentService) Schedule(args live.ScheduleArgs, reply *live.ScheduleReply) error {
	if err := f.s.leaderCheck(); err != nil {
		return err
	}
	spec, err := task.Resolve(args.Problem, args.Variant)
	if err != nil {
		return err
	}
	dec, err := f.s.d.Submit(agent.Request{
		JobID:     args.TaskKey,
		TaskID:    args.TaskKey,
		Spec:      spec,
		Arrival:   f.s.cfg.Clock.Now(),
		Submitted: args.Arrival,
		Tenant:    args.Tenant,
		Deadline:  args.Deadline,
	})
	if errors.Is(err, agent.ErrUnschedulable) {
		return fmt.Errorf("fed: no server solves %s", spec.Name())
	}
	if err != nil {
		return err
	}
	f.s.mu.Lock()
	addr := f.s.addrs[dec.Server]
	f.s.mu.Unlock()
	*reply = live.ScheduleReply{Server: dec.Server, Addr: addr}
	return nil
}

// TaskDone relays a server's completion message to the placing
// member.
func (f *FedAgentService) TaskDone(args live.TaskDoneArgs, _ *live.Ack) error {
	if err := f.s.leaderCheck(); err != nil {
		return err
	}
	return f.s.d.Complete(args.TaskKey, args.Server, args.At)
}

// LoadReport relays a monitor report to the server's owning member.
func (f *FedAgentService) LoadReport(args live.LoadReportArgs, _ *live.Ack) error {
	if err := f.s.leaderCheck(); err != nil {
		return err
	}
	return f.s.d.Report(args.Name, args.Load, args.At)
}
