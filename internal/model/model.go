// Package model defines the formal objects of Netzer & Miller's execution
// model: operations, events, processes, and program executions ⟨E, T, D⟩.
//
// A program execution P = ⟨E, T, D⟩ consists of a finite set of events E, a
// temporal-ordering relation T (a T b iff a completes before b begins), and
// a shared-data-dependence relation D (a D b iff a accesses a shared
// variable that b later accesses, at least one access being a write).
//
// Events are not atomic: a computation event is an instance of a maximal
// group of consecutively executed non-synchronization statements and may
// span several shared-variable accesses; a synchronization event is an
// instance of exactly one synchronization operation. To capture this, each
// event is made of one or more atomic operations (Op). Interleavings are
// sequences of ops; an event occupies the interval from its first to its
// last op, which is what lets two events overlap (execute concurrently).
package model

import (
	"fmt"
	"sort"
	"strconv"
)

// ProcID identifies a process within an execution (dense, 0-based).
type ProcID int

// EventID identifies an event within an execution (dense, 0-based).
type EventID int

// OpID identifies an atomic operation within an execution (dense, 0-based).
type OpID int

// NoID marks absent optional references (e.g. a root process's fork op).
const NoID = -1

// OpKind enumerates the atomic operations of the model. The synchronization
// repertoire is exactly the paper's: fork/join, P/V on (counting or binary)
// semaphores, and Post/Wait/Clear on event variables. Read/Write are
// shared-variable accesses inside computation events; Nop is a placeholder
// access-free computation step (e.g. "skip").
type OpKind int

const (
	OpNop     OpKind = iota // computation step with no shared access
	OpRead                  // read of shared variable Obj
	OpWrite                 // write of shared variable Obj
	OpAcquire               // P(Obj): decrement semaphore, blocking at zero
	OpRelease               // V(Obj): increment semaphore
	OpPost                  // Post(Obj): set event variable
	OpWait                  // Wait(Obj): block until event variable is set
	OpClear                 // Clear(Obj): reset event variable
	OpFork                  // start process named Obj
	OpJoin                  // block until process named Obj has completed
)

var opKindNames = [...]string{
	OpNop:     "nop",
	OpRead:    "read",
	OpWrite:   "write",
	OpAcquire: "P",
	OpRelease: "V",
	OpPost:    "post",
	OpWait:    "wait",
	OpClear:   "clear",
	OpFork:    "fork",
	OpJoin:    "join",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsSync reports whether the op kind is a synchronization operation. A
// synchronization op always forms a single-op event.
func (k OpKind) IsSync() bool {
	switch k {
	case OpAcquire, OpRelease, OpPost, OpWait, OpClear, OpFork, OpJoin:
		return true
	}
	return false
}

// IsAccess reports whether the op kind is a shared-variable access.
func (k OpKind) IsAccess() bool { return k == OpRead || k == OpWrite }

// Op is one atomic operation of the execution.
type Op struct {
	ID    OpID
	Proc  ProcID
	Event EventID
	Kind  OpKind
	// Obj names the object operated on: the semaphore for P/V, the event
	// variable for Post/Wait/Clear, the shared variable for Read/Write, and
	// the child process for Fork/Join. Empty for Nop.
	Obj string
	// Stmt optionally records the source statement for diagnostics.
	Stmt string
}

// Event is one event of E: a synchronization event (exactly one sync op) or
// a computation event (one or more non-sync ops of the same process,
// consecutive in program order).
type Event struct {
	ID    EventID
	Proc  ProcID
	Kind  OpKind // the sync op kind, or OpNop for computation events
	Obj   string // the sync object, or "" for computation events
	Label string // optional user-facing label (e.g. "a", "b")
	Ops   []OpID // in program order, nonempty
}

// IsSync reports whether e is a synchronization event.
func (e *Event) IsSync() bool { return e.Kind.IsSync() }

// First returns the event's first op.
func (e *Event) First() OpID { return e.Ops[0] }

// Last returns the event's last op.
func (e *Event) Last() OpID { return e.Ops[len(e.Ops)-1] }

// Proc is one process of the execution with its ops in program order.
type Proc struct {
	ID   ProcID
	Name string
	Ops  []OpID // program order
	// Parent is the forking process, or NoID for processes that exist from
	// the start of the execution.
	Parent ProcID
	// ForkOp is the OpFork in the parent that starts this process, or NoID.
	ForkOp OpID
}

// SemKind distinguishes counting from binary semaphores.
type SemKind int

const (
	// SemCounting semaphores have unbounded counters.
	SemCounting SemKind = iota
	// SemBinary semaphores have counters bounded by one; a V on a binary
	// semaphore whose value is already one blocks until a P lowers it.
	SemBinary
)

func (k SemKind) String() string {
	if k == SemBinary {
		return "binary"
	}
	return "counting"
}

// Semaphore declares a semaphore with its initial value.
type Semaphore struct {
	Name string
	Init int
	Kind SemKind
}

// Execution is an observed program execution: the event set E together with
// an observed total interleaving of its ops (from which the observed T and
// D relations derive), plus the synchronization-object declarations needed
// to judge the validity of alternate interleavings.
type Execution struct {
	Procs  []Proc
	Events []Event
	Ops    []Op
	// Sems declares every semaphore (initial value, counting/binary).
	Sems map[string]Semaphore
	// EvInit gives the initial state of each event variable (true = posted).
	// Event variables used but absent from the map start clear.
	EvInit map[string]bool
	// Order is the observed interleaving: a permutation of all op ids that
	// the observed execution performed, in global time order. (Modeling the
	// observed run as a total order loses no generality: the relations in
	// this library quantify over all valid re-orderings anyway.)
	Order []OpID
}

// NumEvents returns |E|.
func (x *Execution) NumEvents() int { return len(x.Events) }

// NumOps returns the number of atomic operations.
func (x *Execution) NumOps() int { return len(x.Ops) }

// NumProcs returns the number of processes.
func (x *Execution) NumProcs() int { return len(x.Procs) }

// EventOf returns the event containing op id.
func (x *Execution) EventOf(id OpID) *Event { return &x.Events[x.Ops[id].Event] }

// EventByLabel returns the event carrying the given label.
func (x *Execution) EventByLabel(label string) (*Event, bool) {
	for i := range x.Events {
		if x.Events[i].Label == label {
			return &x.Events[i], true
		}
	}
	return nil, false
}

// MustEventByLabel is EventByLabel that panics on a missing label; intended
// for tests and examples where absence is a bug.
func (x *Execution) MustEventByLabel(label string) *Event {
	e, ok := x.EventByLabel(label)
	if !ok {
		panic(fmt.Sprintf("model: no event labeled %q", label))
	}
	return e
}

// Labels returns all event labels in increasing event order.
func (x *Execution) Labels() []string {
	var out []string
	for i := range x.Events {
		if x.Events[i].Label != "" {
			out = append(out, x.Events[i].Label)
		}
	}
	return out
}

// ProcByName returns the process with the given name.
func (x *Execution) ProcByName(name string) (*Proc, bool) {
	for i := range x.Procs {
		if x.Procs[i].Name == name {
			return &x.Procs[i], true
		}
	}
	return nil, false
}

// SemNames returns the declared semaphore names, sorted.
func (x *Execution) SemNames() []string {
	out := make([]string, 0, len(x.Sems))
	for name := range x.Sems {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// String summarizes the execution.
func (x *Execution) String() string {
	return fmt.Sprintf("execution{procs=%d events=%d ops=%d sems=%d}",
		len(x.Procs), len(x.Events), len(x.Ops), len(x.Sems))
}

// EventName renders a short human-readable description of event id.
func (x *Execution) EventName(id EventID) string {
	var buf [64]byte
	return string(x.AppendEventName(buf[:0], id))
}

// AppendEventName appends EventName's description of event id to dst: the
// label and a colon when the event has one, then "e<id>[<proc> <kind>(<obj>)]"
// for a synchronization event or "e<id>[<proc> compute×<ops>]" for a
// computation event.
func (x *Execution) AppendEventName(dst []byte, id EventID) []byte {
	e := &x.Events[id]
	if e.Label != "" {
		dst = append(dst, e.Label...)
		dst = append(dst, ':')
	}
	dst = append(dst, 'e')
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, '[')
	dst = append(dst, x.Procs[e.Proc].Name...)
	if e.IsSync() {
		dst = append(dst, ' ')
		dst = append(dst, e.Kind.String()...)
		dst = append(dst, '(')
		dst = append(dst, e.Obj...)
		return append(dst, ')', ']')
	}
	dst = append(dst, " compute×"...)
	dst = strconv.AppendInt(dst, int64(len(e.Ops)), 10)
	return append(dst, ']')
}
