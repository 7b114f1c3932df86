package model

import "fmt"

// ValidateStructure checks the structural invariants an execution's event
// set must satisfy before any interleaving is considered:
//
//   - op/event/process cross-references are consistent;
//   - every synchronization event holds exactly one op;
//   - computation events hold only non-sync ops of one process, consecutive
//     in program order;
//   - fork targets exist, are forked at most once, and fork/parent links
//     agree;
//   - event labels are unique;
//   - semaphore declarations are sane.
//
// It does not check x.Order; use Replay for that.
func ValidateStructure(x *Execution) error {
	// Ops ↔ procs.
	seen := make([]bool, len(x.Ops))
	for p := range x.Procs {
		proc := &x.Procs[p]
		if proc.ID != ProcID(p) {
			return fmt.Errorf("model: proc %d has ID %d", p, proc.ID)
		}
		for _, opID := range proc.Ops {
			if int(opID) < 0 || int(opID) >= len(x.Ops) {
				return fmt.Errorf("model: proc %q references op %d out of range", proc.Name, opID)
			}
			if seen[opID] {
				return fmt.Errorf("model: op %d appears in two processes", opID)
			}
			seen[opID] = true
			if x.Ops[opID].Proc != ProcID(p) {
				return fmt.Errorf("model: op %d in proc %q but records proc %d", opID, proc.Name, x.Ops[opID].Proc)
			}
		}
	}
	for i := range x.Ops {
		if !seen[i] {
			return fmt.Errorf("model: op %d belongs to no process", i)
		}
		if x.Ops[i].ID != OpID(i) {
			return fmt.Errorf("model: op %d has ID %d", i, x.Ops[i].ID)
		}
	}

	// Events.
	opEvent := make([]EventID, len(x.Ops))
	for i := range opEvent {
		opEvent[i] = EventID(NoID)
	}
	labels := map[string]EventID{}
	for e := range x.Events {
		ev := &x.Events[e]
		if ev.ID != EventID(e) {
			return fmt.Errorf("model: event %d has ID %d", e, ev.ID)
		}
		if len(ev.Ops) == 0 {
			return fmt.Errorf("model: event %d is empty", e)
		}
		if ev.IsSync() && len(ev.Ops) != 1 {
			return fmt.Errorf("model: sync event %d has %d ops", e, len(ev.Ops))
		}
		if ev.Label != "" {
			if prev, dup := labels[ev.Label]; dup {
				return fmt.Errorf("model: label %q on both event %d and event %d", ev.Label, prev, e)
			}
			labels[ev.Label] = EventID(e)
		}
		for _, opID := range ev.Ops {
			op := &x.Ops[opID]
			if op.Proc != ev.Proc {
				return fmt.Errorf("model: event %d (proc %d) contains op %d of proc %d", e, ev.Proc, opID, op.Proc)
			}
			if op.Event != EventID(e) {
				return fmt.Errorf("model: op %d records event %d but is listed in event %d", opID, op.Event, e)
			}
			if ev.IsSync() {
				if op.Kind != ev.Kind || op.Obj != ev.Obj {
					return fmt.Errorf("model: sync event %d kind/obj mismatch with its op", e)
				}
			} else if op.Kind.IsSync() {
				return fmt.Errorf("model: computation event %d contains sync op %d", e, opID)
			}
			if opEvent[opID] != EventID(NoID) {
				return fmt.Errorf("model: op %d listed in two events", opID)
			}
			opEvent[opID] = EventID(e)
		}
		// Consecutive in program order.
		proc := &x.Procs[ev.Proc]
		idx := -1
		for i, opID := range proc.Ops {
			if opID == ev.Ops[0] {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("model: event %d's first op not in its process", e)
		}
		for k, opID := range ev.Ops {
			if idx+k >= len(proc.Ops) || proc.Ops[idx+k] != opID {
				return fmt.Errorf("model: event %d's ops not consecutive in program order", e)
			}
		}
	}
	for i := range x.Ops {
		if opEvent[i] == EventID(NoID) {
			return fmt.Errorf("model: op %d belongs to no event", i)
		}
	}

	// Fork/join structure.
	names := map[string]ProcID{}
	for p := range x.Procs {
		if prev, dup := names[x.Procs[p].Name]; dup {
			return fmt.Errorf("model: duplicate process name %q (procs %d and %d)", x.Procs[p].Name, prev, p)
		}
		names[x.Procs[p].Name] = ProcID(p)
	}
	forkTargets := map[string]OpID{}
	for i := range x.Ops {
		op := &x.Ops[i]
		switch op.Kind {
		case OpFork:
			child, ok := names[op.Obj]
			if !ok {
				return fmt.Errorf("model: fork of unknown process %q", op.Obj)
			}
			if prev, dup := forkTargets[op.Obj]; dup {
				return fmt.Errorf("model: process %q forked twice (ops %d and %d)", op.Obj, prev, i)
			}
			forkTargets[op.Obj] = OpID(i)
			cp := &x.Procs[child]
			if cp.Parent != op.Proc {
				return fmt.Errorf("model: process %q forked by proc %d but Parent=%d", op.Obj, op.Proc, cp.Parent)
			}
			if cp.ForkOp != OpID(i) {
				return fmt.Errorf("model: process %q ForkOp=%d but fork op is %d", op.Obj, cp.ForkOp, i)
			}
		case OpJoin:
			if _, ok := names[op.Obj]; !ok {
				return fmt.Errorf("model: join of unknown process %q", op.Obj)
			}
		case OpAcquire, OpRelease:
			if _, ok := x.Sems[op.Obj]; !ok {
				return fmt.Errorf("model: undeclared semaphore %q", op.Obj)
			}
		}
	}
	for p := range x.Procs {
		proc := &x.Procs[p]
		if proc.Parent == ProcID(NoID) {
			if proc.ForkOp != OpID(NoID) {
				return fmt.Errorf("model: root process %q has a fork op", proc.Name)
			}
		} else {
			if proc.ForkOp == OpID(NoID) {
				return fmt.Errorf("model: child process %q has no fork op", proc.Name)
			}
			if _, forked := forkTargets[proc.Name]; !forked {
				return fmt.Errorf("model: child process %q never forked", proc.Name)
			}
		}
	}

	// Semaphores.
	for name, decl := range x.Sems {
		if decl.Init < 0 {
			return fmt.Errorf("model: semaphore %q has negative initial value", name)
		}
		if decl.Kind == SemBinary && decl.Init > 1 {
			return fmt.Errorf("model: binary semaphore %q has initial value %d", name, decl.Init)
		}
	}
	return nil
}

// Validate checks both the structure and that the observed order is a
// complete valid interleaving (the model's axioms for ⟨E, T⟩ plus the
// synchronization semantics). An execution with no ops needs no order: the
// empty interleaving is its only one.
func Validate(x *Execution) error {
	if err := ValidateStructure(x); err != nil {
		return err
	}
	if x.Order == nil && len(x.Ops) > 0 {
		return fmt.Errorf("model: execution has no observed order")
	}
	return Replay(x, x.Order, nil)
}
