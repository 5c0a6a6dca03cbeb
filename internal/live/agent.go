package live

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"casched/internal/agent"
	"casched/internal/cluster"
	"casched/internal/htm"
	"casched/internal/sched"
	"casched/internal/task"
	"casched/internal/trace"
)

// AgentConfig parameterizes a live agent.
type AgentConfig struct {
	// Scheduler is the heuristic the agent applies.
	Scheduler sched.Scheduler
	// Clock is the experiment clock shared by all components.
	Clock *Clock
	// Seed drives randomized tie-breaking.
	Seed uint64
	// Log, when non-nil, receives events.
	Log *trace.Log
	// HTMSync enables trace re-anchoring on completion messages.
	HTMSync bool
	// Shards partitions the server pool across that many agent cores
	// behind the cluster dispatch layer (0 or 1 = the single shared
	// core).
	Shards int
	// ShardPolicy assigns registering servers to shards (nil = hash).
	// Only consulted when Shards > 1.
	ShardPolicy cluster.ShardPolicy
	// Addr is the TCP listen address (default "127.0.0.1:0", an
	// ephemeral loopback port).
	Addr string
	// TenantShares, when non-nil, turns on weighted fair-share
	// arbitration of multi-tenant intake (see agent.Config).
	TenantShares map[string]float64
	// Admission turns on deadline-aware admission control.
	Admission bool
	// IntakeRate, when positive, bounds raw intake with a token bucket
	// (IntakeRate tasks per virtual second, burst IntakeBurst) — the
	// core's own bucket on a single core, the dispatch-level bucket on
	// a sharded cluster.
	IntakeRate  float64
	IntakeBurst float64
	// Join, when non-empty, is a comma-separated list of federation
	// dispatcher RPC addresses: after listening, the agent announces
	// itself with Fed.Join to each (a replicated-dispatcher deployment
	// lists the leader and every standby so all of them track the
	// member) and serves as a federation member (the framed member wire
	// drives the core). Joining requires a single core
	// (Shards <= 1). Startup fails only when every address refuses.
	Join string
	// RelayOff disables the federation event relay ledger on a
	// single-core agent. By default a live single-core agent keeps the
	// ledger (cheap, bounded) so a relay-enabled dispatcher can stream
	// its decisions; with RelayOff the agent answers relay pulls
	// Disabled.
	RelayOff bool
	// Name is the agent's federation member name (default: its listen
	// address).
	Name string
}

// Engine is the decision surface the live transport drives: the single
// agent core or a sharded cluster — the wire protocol cannot tell them
// apart.
type Engine interface {
	AddServer(name string)
	RemoveServer(name string)
	Submit(req agent.Request) (agent.Decision, error)
	Complete(jobID int, server string, at float64) agent.Completion
	Report(server string, load, at float64)
	Subscribe(fn func(agent.Event)) (cancel func())
	Prediction(jobID int) (float64, bool)
	FinalPredictions() map[int]float64
	EvalStats() htm.EvalStats
}

// Agent is the central scheduler of the live deployment: a TCP
// transport (RPC service "Agent") over the shared decision engine —
// one agent core, or a sharded cluster of them (AgentConfig.Shards).
// The agent itself only keeps the name→address book and the wire
// protocol.
type Agent struct {
	cfg    AgentConfig
	engine Engine
	core   *agent.Core // non-nil only for the single-core engine

	mu    sync.Mutex
	addrs map[string]string // server name -> RPC address
	conns map[net.Conn]struct{}
	done  bool
	// fence is the leader-election fencing watermark: the highest
	// dispatcher term seen on a mutating member call. Calls carrying a
	// lower (non-zero) term are refused — a deposed leader cannot
	// place work here after a standby took over.
	fence uint64

	// joined are the dispatcher addresses this member announced itself
	// to; name is the member name used (for Fed.Leave).
	joined []string
	name   string

	lis net.Listener
	srv *rpc.Server
}

// StartAgent launches an agent listening on 127.0.0.1 (an ephemeral
// port) and returns it together with its address.
func StartAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("live: agent needs a scheduler")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("live: agent needs a clock")
	}
	coreCfg := agent.Config{
		Scheduler:    cfg.Scheduler,
		Seed:         cfg.Seed,
		HTMSync:      cfg.HTMSync,
		Log:          cfg.Log,
		TenantShares: cfg.TenantShares,
		Admission:    cfg.Admission,
	}
	var engine Engine
	var core *agent.Core
	if cfg.Shards > 1 {
		// The intake bucket sits in front of the dispatch layer, not in
		// the shard cores — one limiter per deployment.
		cl, err := cluster.NewFromConfig(cluster.Config{
			Shards: cfg.Shards,
			Core:   coreCfg,
			Dispatch: cluster.DispatcherConfig{
				Policy:      cfg.ShardPolicy,
				IntakeRate:  cfg.IntakeRate,
				IntakeBurst: cfg.IntakeBurst,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("live: %w", err)
		}
		engine = cl
	} else {
		coreCfg.IntakeRate, coreCfg.IntakeBurst = cfg.IntakeRate, cfg.IntakeBurst
		// Only a single core can serve as a federation member, so only
		// there does the relay ledger have a consumer.
		coreCfg.Relay = !cfg.RelayOff
		var err error
		core, err = agent.New(coreCfg)
		if err != nil {
			return nil, fmt.Errorf("live: %w", err)
		}
		engine = core
	}
	a := &Agent{
		cfg:    cfg,
		engine: engine,
		core:   core,
		addrs:  make(map[string]string),
		conns:  make(map[net.Conn]struct{}),
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: agent listen: %w", err)
	}
	a.lis = lis
	a.srv = rpc.NewServer()
	if err := a.srv.RegisterName("Agent", &AgentService{a}); err != nil {
		lis.Close()
		return nil, fmt.Errorf("live: agent rpc register: %w", err)
	}
	go a.serve()
	if cfg.Join != "" {
		if core == nil {
			lis.Close()
			return nil, fmt.Errorf("live: a sharded agent (Shards=%d) cannot join a federation", cfg.Shards)
		}
		name := cfg.Name
		if name == "" {
			name = a.Addr()
		}
		a.name = name
		var firstErr error
		for _, da := range splitAddrs(cfg.Join) {
			if err := fedCall(da, "Fed.Join", "join federation", JoinArgs{Name: name, Addr: a.Addr(), Heuristic: cfg.Scheduler.Name()}); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			a.joined = append(a.joined, da)
		}
		if len(a.joined) == 0 {
			lis.Close()
			return nil, firstErr
		}
	}
	return a, nil
}

// Addr returns the agent's RPC address.
func (a *Agent) Addr() string { return a.lis.Addr().String() }

// Close stops accepting connections and drops the active ones, so
// peers holding persistent RPC clients (federation dispatchers,
// long-lived clients) observe the shutdown instead of talking to a
// half-dead agent.
func (a *Agent) Close() error {
	err := a.lis.Close()
	a.mu.Lock()
	a.done = true
	for conn := range a.conns {
		conn.Close()
	}
	a.conns = make(map[net.Conn]struct{})
	a.mu.Unlock()
	return err
}

// admitTerm enforces the leader-election fence on a mutating member
// call: zero terms are always admitted (HA off), a term at or above
// the watermark raises it, a lower term is refused. The refusal travels
// as a msgError frame — a delivered answer, not a transport failure, so
// the caller neither evicts this member nor reroutes the task.
func (a *Agent) admitTerm(term uint64) error {
	if term == 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if term < a.fence {
		return fmt.Errorf("live: stale leader term %d (member fenced at %d)", term, a.fence)
	}
	a.fence = term
	return nil
}

// Leave gracefully departs the federation: each joined dispatcher is
// told Fed.Leave (so it re-homes this member's server partition to
// the survivors), then the member drains — waits, up to timeout, for
// its in-flight work to complete; completions still route here until
// it does. Errors from dispatchers that are unreachable or predate
// the Leave protocol are ignored: eviction cleans up after them.
func (a *Agent) Leave(timeout time.Duration) {
	a.mu.Lock()
	joined, name := a.joined, a.name
	a.mu.Unlock()
	for _, da := range joined {
		_ = fedCall(da, "Fed.Leave", "leave federation", LeaveArgs{Name: name})
	}
	if a.core == nil {
		return
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if a.core.LoadSummary().InFlight == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Core exposes the single shared core, or nil when the agent runs
// sharded (AgentConfig.Shards > 1); use Engine for the
// transport-agnostic surface.
func (a *Agent) Core() *agent.Core { return a.core }

// Engine exposes the agent's decision engine — the core or the
// cluster — e.g. to subscribe to its event stream.
func (a *Agent) Engine() Engine { return a.engine }

// serve accepts RPC connections until the listener closes.
func (a *Agent) serve() {
	for {
		conn, err := a.lis.Accept()
		if err != nil {
			return
		}
		a.mu.Lock()
		if a.done {
			a.mu.Unlock()
			conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.mu.Unlock()
		go func() {
			a.serveConn(conn)
			conn.Close()
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}()
	}
}

// log appends an event if logging is configured.
func (a *Agent) log(r trace.Record) {
	if a.cfg.Log != nil {
		a.cfg.Log.Add(r)
	}
}

// register adds a server to the pool (idempotent by name). Membership
// goes to the core (belief + HTM trace lifecycle); the address book is
// transport state and stays here.
func (a *Agent) register(args RegisterArgs) {
	a.mu.Lock()
	a.addrs[args.Name] = args.Addr
	a.mu.Unlock()
	a.engine.AddServer(args.Name)
	a.log(trace.Record{Time: a.cfg.Clock.Now(), Kind: "register", Server: args.Name, TaskID: -1})
}

// schedule picks a server for a request through the shared core and
// returns its address.
func (a *Agent) schedule(args ScheduleArgs) (ScheduleReply, error) {
	spec, err := task.Resolve(args.Problem, args.Variant)
	if err != nil {
		return ScheduleReply{}, err
	}
	dec, err := a.engine.Submit(agent.Request{
		JobID:     args.TaskKey,
		TaskID:    args.TaskKey,
		Spec:      spec,
		Arrival:   a.cfg.Clock.Now(),
		Submitted: args.Arrival,
		Tenant:    args.Tenant,
		Deadline:  args.Deadline,
	})
	if errors.Is(err, agent.ErrUnschedulable) {
		return ScheduleReply{}, fmt.Errorf("live: no server solves %s", spec.Name())
	}
	if err != nil {
		return ScheduleReply{}, fmt.Errorf("live: %w", err)
	}
	a.mu.Lock()
	addr := a.addrs[dec.Server]
	a.mu.Unlock()
	return ScheduleReply{Server: dec.Server, Addr: addr}, nil
}

// taskDone relays a server's completion message to the core.
func (a *Agent) taskDone(args TaskDoneArgs) {
	a.engine.Complete(args.TaskKey, args.Server, args.At)
}

// loadReport relays a periodic monitor report to the core.
func (a *Agent) loadReport(args LoadReportArgs) {
	a.engine.Report(args.Name, args.Load, args.At)
}

// Prediction returns the HTM completion predicted when the task was
// placed (HTM heuristics only). Predictions are evicted once the task
// completes; use FinalPredictions for post-run comparisons.
func (a *Agent) Prediction(taskKey int) (float64, bool) {
	return a.engine.Prediction(taskKey)
}

// FinalPredictions returns the HTM's end-of-run simulated completion
// date for every placed task — the "simulated completion date" column
// of Table 1.
func (a *Agent) FinalPredictions() map[int]float64 {
	return a.engine.FinalPredictions()
}

// AgentService is the RPC facade. Methods follow net/rpc conventions.
type AgentService struct{ a *Agent }

// Register handles server registration.
func (s *AgentService) Register(args RegisterArgs, _ *Ack) error {
	s.a.register(args)
	return nil
}

// Schedule handles a client scheduling request.
func (s *AgentService) Schedule(args ScheduleArgs, reply *ScheduleReply) error {
	r, err := s.a.schedule(args)
	if err != nil {
		return err
	}
	*reply = r
	return nil
}

// TaskDone handles a server completion message.
func (s *AgentService) TaskDone(args TaskDoneArgs, _ *Ack) error {
	s.a.taskDone(args)
	return nil
}

// LoadReport handles a periodic monitor report.
func (s *AgentService) LoadReport(args LoadReportArgs, _ *Ack) error {
	s.a.loadReport(args)
	return nil
}
