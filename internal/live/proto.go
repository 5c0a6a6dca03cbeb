package live

// Wire types. First the net/rpc (gob) protocol between clients, the
// agent and the servers; the exchange mirrors NetSolve's (§2.1):
//
//	server --> agent : Register (problems it solves), periodic LoadReport
//	client --> agent : Schedule (which server should run this problem?)
//	client --> server: Submit (blocking RPC; returns when the task is done)
//	server --> agent : TaskDone (completion message, feeds load correction)

// Ack is the empty reply of one-way notifications.
type Ack struct{}

// RegisterArgs announces a server to the agent.
type RegisterArgs struct {
	// Name is the server's machine name (cost-table key).
	Name string
	// Addr is the server's RPC listen address.
	Addr string
	// Problems lists the problem names the server can solve.
	Problems []string
}

// LoadReportArgs carries a periodic load-average report.
type LoadReportArgs struct {
	Name string
	Load float64
	At   float64 // virtual time of the measurement
}

// ScheduleArgs is a client's request for a server assignment.
type ScheduleArgs struct {
	// TaskKey is the client's identifier for the task (unique per
	// experiment).
	TaskKey int
	// Problem and Variant identify the task type (task.Resolve).
	Problem string
	Variant int
	// Arrival is the client-side submission date in virtual seconds.
	Arrival float64
	// Tenant and Deadline carry the multi-tenant intake metadata (zero
	// values = untenanted, no deadline). New fields on the gob wire:
	// old peers simply decode them as absent.
	Tenant   string
	Deadline float64
}

// ScheduleReply names the chosen server.
type ScheduleReply struct {
	// Server is the machine name chosen by the heuristic.
	Server string
	// Addr is the server's RPC address the client must submit to.
	Addr string
}

// SubmitArgs asks a server to execute a task. The server derives the
// task's nominal costs from its own cost table, as a NetSolve server
// knows its own problem implementations.
type SubmitArgs struct {
	TaskKey int
	Problem string
	Variant int
}

// SubmitReply returns when the task completes.
type SubmitReply struct {
	// Completion is the virtual completion date measured by the server.
	Completion float64
	// Server echoes the executing server's name.
	Server string
}

// TaskDoneArgs is the server→agent completion message.
type TaskDoneArgs struct {
	TaskKey int
	Server  string
	At      float64
}

// Federation wire types: the member half of the protocol. A federated
// dispatcher (internal/fed) drives member agents over the framed member
// wire (frame.go), which encodes the Member* types below field by
// field; a member announces itself to a dispatcher with "Fed.Join" over
// net/rpc. Tasks cross the wire as (Problem, Variant) pairs resolved
// against the shared task registry, exactly as the client protocol
// does; timestamps are stamped by the dispatcher so member clocks never
// enter the decisions.

// JoinArgs announces a member agent to a federation dispatcher.
type JoinArgs struct {
	// Name is the member's federation name (routing state key).
	Name string
	// Addr is the member's RPC listen address the dispatcher dials
	// back.
	Addr string
	// Heuristic is the member's configured heuristic; the dispatcher
	// rejects joins that disagree with its own, since cross-member
	// score comparison assumes one objective.
	Heuristic string
}

// MemberTaskArgs identifies one task (re)submission on the member
// wire.
type MemberTaskArgs struct {
	JobID   int
	TaskID  int
	Attempt int
	Problem string
	Variant int
	// Arrival is the decision instant stamped by the dispatcher;
	// Submitted is the client-side submission date (0 = Arrival).
	Arrival   float64
	Submitted float64
	// Tenant and Deadline carry the multi-tenant intake fields (empty /
	// zero for single-tenant traffic).
	Tenant   string
	Deadline float64
	// Term is the dispatcher's leader-election fencing token. Members
	// reject mutating calls carrying a term below their high-water
	// mark, so a deposed leader cannot double-place after a standby
	// takes over. Zero means unfenced (HA off).
	Term uint64
}

// MemberEvalReply is a member's provisional candidate for one
// evaluation (agent.Candidate over the wire).
type MemberEvalReply struct {
	Server     string
	Score, Tie float64
	Scored     bool
	// Unschedulable distinguishes "no server of this partition solves
	// it" from transport or scheduling errors, which travel as error
	// frames. DeadlineUnmet marks an admission refusal (no server of
	// this partition meets the task's deadline) — also a per-member
	// exclusion, not a transport failure.
	Unschedulable bool
	DeadlineUnmet bool
}

// MemberCommitArgs commits a previously evaluated placement.
type MemberCommitArgs struct {
	Task   MemberTaskArgs
	Server string
}

// MemberDecisionReply is a committed placement (agent.Decision over
// the wire).
type MemberDecisionReply struct {
	Server        string
	Predicted     float64
	HasPrediction bool
	Unschedulable bool
	DeadlineUnmet bool
}

// MemberBatchArgs is a burst routed whole to one member.
type MemberBatchArgs struct {
	Tasks []MemberTaskArgs
}

// MemberBatchReply carries per-task decisions; a zero Server marks a
// failed request, with the joined errors flattened into Error.
type MemberBatchReply struct {
	Decisions []MemberDecisionReply
	Error     string
}

// MemberSummaryReply is the member's load summary (fed.Summary over
// the wire).
type MemberSummaryReply struct {
	InFlight    int
	Servers     int
	MinReady    float64
	HasMinReady bool
	// TenantInFlight splits InFlight per tenant — the fair-share
	// routing signal of a multi-tenant federation. Nil from members
	// with no tenanted work.
	TenantInFlight map[string]int
	// Relay fields (HasRelay false from a member running with the relay
	// off, which the dispatcher routes from summaries alone):
	// ServerReady is the per-server projected-drain breakdown relay
	// routing prices against, RelaySeq the member's relay-ledger
	// sequence at capture.
	ServerReady map[string]float64
	RelaySeq    uint64
	HasRelay    bool
}

// MemberRelayArgs asks for the member's relay events after a ledger
// sequence number.
type MemberRelayArgs struct {
	Since uint64
}

// RelayEvent is one member scheduling transition on the wire
// (relay.Event).
type RelayEvent struct {
	Seq      uint64
	Kind     uint8
	JobID    int
	Tenant   string
	Server   string
	Time     float64
	Ready    float64
	HasReady bool
}

// MemberRelayReply is a relay delta (relay.Delta over the wire).
// Disabled reports that the member runs with the relay off — a
// capability answer, not an error, so the dispatcher stops asking.
type MemberRelayReply struct {
	Events   []RelayEvent
	From, To uint64
	Resync   bool
	Disabled bool
}

// High-availability wire types: dispatcher replication. Standby
// dispatchers follow the member relay streams and elect a leader over
// the "HA" RPC service each HA-enabled dispatcher exposes; members
// fence mutating calls by election term; agents announce graceful
// departure with "Fed.Leave". Both services ride net/rpc (gob).

// HAVoteArgs solicits one election vote (ha.VoteArgs on the wire).
type HAVoteArgs struct {
	Candidate string
	Term      uint64
}

// HAVoteReply grants or refuses the vote.
type HAVoteReply struct {
	Granted bool
	Term    uint64
}

// HAHeartbeatArgs asserts the leader's lease for Term; Addr is the
// client-facing address followers hand out as the failover hint, and
// Resign announces a voluntary step-down.
type HAHeartbeatArgs struct {
	Leader string
	Addr   string
	Term   uint64
	Resign bool
}

// HAHeartbeatReply acknowledges the lease; OK=false with a higher
// Term deposes a stale leader.
type HAHeartbeatReply struct {
	OK   bool
	Term uint64
}

// LeaveArgs announces a member's graceful departure: the dispatcher
// re-homes its server partition to the survivors while the leaver
// drains its in-flight work.
type LeaveArgs struct {
	Name string
}
