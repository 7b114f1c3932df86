// Package vclock computes the classical vector-clock happened-before
// relation of an observed execution — what practical dynamic race detectors
// (of the DJIT/FastTrack/TSan family) compute. It is the third baseline of
// the experiments.
//
// The relation is derived from the synchronization pairings of the observed
// interleaving: program order, fork/join edges, the i-th V of each
// semaphore paired to the i-th P (offset by the initial value), and each
// Wait paired to the most recent un-cleared Post of its event variable.
// Because another feasible execution may pair the operations differently,
// this relation is generally UNSAFE as an approximation of the must-have
// orderings, and incomplete for the could-have ones; the paper's hardness
// results explain why no polynomial-time analysis can close the gap.
//
// Two independent implementations are provided and cross-checked in tests:
// Clocks (textbook vector clocks, one component per process) and the
// equivalent reachability closure over the pairing edges.
package vclock

import (
	"fmt"

	"eventorder/internal/model"
)

// VC is a vector clock with one component per process.
type VC []int

// Clone copies the clock.
func (v VC) Clone() VC { return append(VC(nil), v...) }

// Join takes the componentwise maximum of v and o into v.
func (v VC) Join(o VC) {
	for i := range v {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

// LessEq reports whether v ≤ o componentwise.
func (v VC) LessEq(o VC) bool {
	for i := range v {
		if v[i] > o[i] {
			return false
		}
	}
	return true
}

// String renders the clock as "[1 0 2]".
func (v VC) String() string { return fmt.Sprint([]int(v)) }

// Result carries the computed relation and per-event clocks.
type Result struct {
	// HB is the vector-clock happened-before relation over events:
	// HB(a, b) iff a's clock is ≤ b's and a ≠ b (a "happened before" b
	// under the observed pairing).
	HB *model.Relation
	// EventClock[e] is the clock taken after executing event e's last op.
	EventClock []VC
}

// Compute derives vector clocks for an execution by replaying the observed
// order once (O(ops × procs)).
func Compute(x *model.Execution) (*Result, error) {
	if err := model.Validate(x); err != nil {
		return nil, err
	}
	np := x.NumProcs()
	procClock := make([]VC, np)
	for p := range procClock {
		procClock[p] = make(VC, np)
	}

	// Semaphore channels: V deposits its process clock (FIFO); P joins the
	// clock of the matched deposit. Initial tokens carry zero clocks.
	semQueue := map[string][]VC{}
	for name, decl := range x.Sems {
		for i := 0; i < decl.Init; i++ {
			semQueue[name] = append(semQueue[name], make(VC, np))
		}
	}
	// Event variables: the clock of the latest Post (nil after a Clear or
	// when initially posted — nothing to join).
	evClock := map[string]VC{}

	opClock := make([]VC, x.NumOps())
	for _, opID := range x.Order {
		op := &x.Ops[opID]
		p := int(op.Proc)
		me := procClock[p]
		me[p]++
		switch op.Kind {
		case model.OpRelease:
			semQueue[op.Obj] = append(semQueue[op.Obj], me.Clone())
		case model.OpAcquire:
			q := semQueue[op.Obj]
			if len(q) == 0 {
				return nil, fmt.Errorf("vclock: P(%s) with no matching V at op %d (invalid order?)", op.Obj, opID)
			}
			me.Join(q[0])
			semQueue[op.Obj] = q[1:]
		case model.OpPost:
			evClock[op.Obj] = me.Clone()
		case model.OpClear:
			delete(evClock, op.Obj)
		case model.OpWait:
			if c, ok := evClock[op.Obj]; ok {
				me.Join(c)
			}
		case model.OpFork:
			child, _ := x.ProcByName(op.Obj)
			procClock[child.ID].Join(me)
		case model.OpJoin:
			child, _ := x.ProcByName(op.Obj)
			me.Join(procClock[child.ID])
		}
		opClock[opID] = me.Clone()
	}

	res := &Result{
		HB:         model.NewRelation("VC", len(x.Events)),
		EventClock: make([]VC, len(x.Events)),
	}
	for e := range x.Events {
		res.EventClock[e] = opClock[x.Events[e].Last()]
	}
	for a := range x.Events {
		for b := range x.Events {
			if a == b {
				continue
			}
			if res.EventClock[a].LessEq(res.EventClock[b]) {
				res.HB.Set(model.EventID(a), model.EventID(b))
			}
		}
	}
	return res, nil
}

// PairingOrder computes the same relation as Compute by building the
// pairing-edge graph and transitively closing it; used to cross-check the
// vector-clock implementation.
func PairingOrder(x *model.Execution) (*model.Relation, error) {
	if err := model.Validate(x); err != nil {
		return nil, err
	}
	r := model.ProgramOrder(x)
	r.Name = "VCpair"

	// Semaphore pairing in observed order.
	type token struct {
		ev model.EventID
		ok bool
	}
	semQueue := map[string][]token{}
	for name, decl := range x.Sems {
		for i := 0; i < decl.Init; i++ {
			semQueue[name] = append(semQueue[name], token{})
		}
	}
	evLast := map[string]token{}
	for _, opID := range x.Order {
		op := &x.Ops[opID]
		switch op.Kind {
		case model.OpRelease:
			semQueue[op.Obj] = append(semQueue[op.Obj], token{ev: op.Event, ok: true})
		case model.OpAcquire:
			q := semQueue[op.Obj]
			if len(q) == 0 {
				return nil, fmt.Errorf("vclock: P(%s) with no matching V", op.Obj)
			}
			if q[0].ok {
				r.Set(q[0].ev, op.Event)
			}
			semQueue[op.Obj] = q[1:]
		case model.OpPost:
			evLast[op.Obj] = token{ev: op.Event, ok: true}
		case model.OpClear:
			delete(evLast, op.Obj)
		case model.OpWait:
			if t, ok := evLast[op.Obj]; ok && t.ok {
				r.Set(t.ev, op.Event)
			}
		}
	}
	r.TransitiveClose()
	return r, nil
}
