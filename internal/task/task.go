// Package task defines the task model of the client-agent-server
// reproduction: independent requests composed of three serial phases
// (input data transfer, computation, output data transfer), with
// per-server nominal costs and memory requirements.
//
// The cost data for the paper's two workloads — square matrix
// multiplications (Table 3) and the memoryless waste-cpu burner
// (Table 4) — are embedded in tables.go.
package task

import "fmt"

// Phase identifies one of the three serial execution phases of a task.
type Phase int

const (
	// PhaseInput is the transfer of input data from client to server.
	PhaseInput Phase = iota
	// PhaseCompute is the computation on the server CPU.
	PhaseCompute
	// PhaseOutput is the transfer of output data back to the client.
	PhaseOutput
	// NumPhases is the number of serial phases of a task.
	NumPhases
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseInput:
		return "input"
	case PhaseCompute:
		return "compute"
	case PhaseOutput:
		return "output"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Cost holds the nominal duration, in seconds on the unloaded server,
// of each phase of a task on one particular server. This mirrors the
// paper's Tables 3 and 4, which report input/computing/output costs per
// (task type, server) pair.
type Cost struct {
	Input   float64 // seconds to receive input data on the unloaded link
	Compute float64 // seconds of CPU work on the unloaded server
	Output  float64 // seconds to send output data on the unloaded link
}

// Total returns the end-to-end duration of the task on an unloaded
// server: the denominator of the paper's stretch metric.
func (c Cost) Total() float64 { return c.Input + c.Compute + c.Output }

// Of returns the cost of one phase.
func (c Cost) Of(p Phase) float64 {
	switch p {
	case PhaseInput:
		return c.Input
	case PhaseCompute:
		return c.Compute
	case PhaseOutput:
		return c.Output
	}
	return 0
}

// Spec describes a task type: the problem name, a variant parameter
// (matrix size or waste-cpu parameter), the per-server costs, and the
// memory footprint held while the task is resident on a server.
//
// A Spec is immutable once it has been handed to a scheduler (an agent
// core, an HTM, a dispatcher): they index CostOn per spec pointer and
// do not look at the map again until pool membership changes. Share one
// pointer per task type, as Resolve, Synthetic and the workload
// generators do; to change a cost, build a new Spec.
type Spec struct {
	// Problem is the problem name the client requests from the agent,
	// e.g. "matmul" or "wastecpu". Servers register the problems they
	// can solve; the agent only considers servers advertising Problem.
	Problem string
	// Variant distinguishes task sizes within a problem (1200/1500/1800
	// for matmul; 200/400/600 for waste-cpu).
	Variant int
	// CostOn maps a server name to the task's nominal phase costs on
	// that server.
	CostOn map[string]Cost
	// MemoryMB is the resident memory footprint in megabytes
	// (input + output matrices for matmul; 0 for waste-cpu).
	MemoryMB float64
}

// Cost returns the nominal cost of the task on the named server and
// whether that server can run this task type at all.
func (s *Spec) Cost(server string) (Cost, bool) {
	c, ok := s.CostOn[server]
	return c, ok
}

// Name returns a human-readable identifier such as "matmul-1500".
func (s *Spec) Name() string { return fmt.Sprintf("%s-%d", s.Problem, s.Variant) }

// MinTotal returns the smallest nominal end-to-end duration of the task
// across the servers that can run it — the best case a deadline can be
// measured against — and false if no server can run it.
func (s *Spec) MinTotal() (float64, bool) {
	best, ok := 0.0, false
	for _, c := range s.CostOn {
		if t := c.Total(); !ok || t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

// Task is one client request: a spec, a global identifier and an
// arrival (submission) date. Tasks are immutable once created; all
// execution state lives in the simulator or runtime.
type Task struct {
	// ID is unique within a metatask, assigned in submission order
	// starting at 0.
	ID int
	// Spec describes the task type.
	Spec *Spec
	// Arrival is the date, in seconds of experiment time, at which the
	// client submits the task to the agent.
	Arrival float64
	// Tenant identifies the submitting tenant for fair-share
	// arbitration. Nested shares separate levels with "/" ("gold/alice").
	// Empty means the single anonymous stream of the paper.
	Tenant string
	// Deadline is the absolute experiment-time date by which the task
	// should complete, for deadline-aware admission. Zero means none.
	Deadline float64
}

// String implements fmt.Stringer.
func (t *Task) String() string {
	return fmt.Sprintf("task#%d(%s@%.2fs)", t.ID, t.Spec.Name(), t.Arrival)
}

// Metatask is the paper's unit of experiment: a set of independent
// tasks submitted to the agent over time.
type Metatask struct {
	// Name labels the metatask for reports.
	Name string
	// Tasks are ordered by non-decreasing arrival date.
	Tasks []*Task
}

// Len returns the number of tasks.
func (m *Metatask) Len() int { return len(m.Tasks) }

// Horizon returns the last arrival date.
func (m *Metatask) Horizon() float64 {
	if len(m.Tasks) == 0 {
		return 0
	}
	return m.Tasks[len(m.Tasks)-1].Arrival
}

// Validate checks the invariants a well-formed metatask must satisfy:
// ids dense from zero, arrivals sorted and non-negative, specs non-nil.
func (m *Metatask) Validate() error {
	prev := 0.0
	for i, t := range m.Tasks {
		if t == nil {
			return fmt.Errorf("task: metatask %q: nil task at index %d", m.Name, i)
		}
		if t.ID != i {
			return fmt.Errorf("task: metatask %q: task at index %d has id %d", m.Name, i, t.ID)
		}
		if t.Spec == nil {
			return fmt.Errorf("task: metatask %q: task %d has nil spec", m.Name, i)
		}
		if t.Arrival < prev {
			return fmt.Errorf("task: metatask %q: arrivals not sorted at index %d (%.3f < %.3f)",
				m.Name, i, t.Arrival, prev)
		}
		prev = t.Arrival
	}
	return nil
}
