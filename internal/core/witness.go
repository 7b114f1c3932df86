package core

import (
	"context"
	"fmt"

	"eventorder/internal/model"
	"eventorder/internal/statetab"
)

// Witness is a feasible interleaving demonstrating a relation verdict.
type Witness struct {
	// Order is the op-level interleaving (projection of the action
	// schedule), valid under the analyzer's constraints.
	Order []model.OpID
	// Steps is the full action-level schedule, including each computation
	// event's begin/end boundaries — the detail that makes overlap
	// (concurrency) witnesses visible: two events are concurrent in the
	// witness iff their begin/end markers interleave.
	Steps []WitnessStep
	// Holds reports the verdict the witness accompanies: for could-
	// relations, Holds==true and Order exhibits the property; for
	// must-relations, Holds==false means Order is a counterexample
	// violating the property (and Holds==true comes with no Order — a
	// universal claim has no single witness).
	Holds bool
}

// WitnessStepKind classifies one action of a witness schedule.
type WitnessStepKind int

const (
	// StepBegin marks a computation event beginning.
	StepBegin WitnessStepKind = iota
	// StepOp is a shared-variable access or an atomic synchronization
	// operation (Op is valid).
	StepOp
	// StepEnd marks a computation event ending.
	StepEnd
)

// WitnessStep is one atomic action of a witness schedule.
type WitnessStep struct {
	Kind  WitnessStepKind
	Event model.EventID
	Op    model.OpID // valid for StepOp, NoID otherwise
}

// WitnessSchedule decides the relation like Decide and additionally
// extracts a demonstrating interleaving:
//
//   - could-relations (CHB/CCW/COW): if the relation holds, Witness.Order
//     is a feasible interleaving exhibiting it;
//   - must-relations (MHB/MCW/MOW): if the relation FAILS, Witness.Order is
//     a feasible counterexample (e.g. for MHB, an interleaving in which b
//     begins before a ends).
//
// When no order accompanies the verdict (could-relation false, or
// must-relation true), Witness.Order is nil.
//
// The search aborts with ctx's error if ctx is canceled or its deadline
// passes; pass context.Background() when cancellation is not needed.
func (a *Analyzer) WitnessSchedule(ctx context.Context, kind RelKind, ea, eb model.EventID) (Witness, error) {
	var w Witness
	err := a.withCtx(ctx, func() error {
		var err error
		w, err = a.witnessSchedule(kind, ea, eb)
		return err
	})
	return w, err
}

func (a *Analyzer) witnessSchedule(kind RelKind, ea, eb model.EventID) (Witness, error) {
	// The violation predicate of a must-relation doubles as the witness
	// acceptance: a found interleaving is then a counterexample.
	accept, _, err := relAccept(kind)
	if err != nil {
		return Witness{}, err
	}
	mustHave := kind.MustHave()
	q, err := a.newPairQuery(ea, eb, accept)
	if err != nil {
		return Witness{}, err
	}
	// Queries the closure refutes (must.go) skip the search; on a
	// certified execution a linear extension holding an open accepted
	// outcome is the witness (certify.go).
	var path []int32
	found := false
	if o := a.openOutcome(q); o != 0 && a.certified {
		if path, err = a.extension(q, o); err != nil {
			return Witness{}, err
		}
		found = true
	} else if o != 0 {
		if path, found, err = a.searchWitness(q); err != nil {
			return Witness{}, err
		}
	}
	if !found {
		// No accepted interleaving: could-relation false / must-relation true.
		return Witness{Holds: mustHave}, nil
	}
	order := make([]model.OpID, 0, len(a.x.Ops))
	steps := make([]WitnessStep, 0, len(path))
	for _, id := range path {
		act := &a.acts[id]
		switch act.kind {
		case actBegin:
			steps = append(steps, WitnessStep{Kind: StepBegin, Event: model.EventID(act.event), Op: model.OpID(model.NoID)})
		case actEnd:
			steps = append(steps, WitnessStep{Kind: StepEnd, Event: model.EventID(act.event), Op: model.OpID(model.NoID)})
		default:
			steps = append(steps, WitnessStep{Kind: StepOp, Event: model.EventID(act.event), Op: model.OpID(act.op)})
			order = append(order, model.OpID(act.op))
		}
	}
	return Witness{Order: order, Steps: steps, Holds: !mustHave}, nil
}

// searchWitness runs the witness search for q from the initial state and
// returns the accepted action path it found, if any.
func (a *Analyzer) searchWitness(q *pairQuery) ([]int32, bool, error) {
	a.symmetry()
	a.resetState()
	budget := a.opts.MaxNodes
	memo := statetab.New(a.keyWords, 0)
	path := make([]int32, 0, len(a.acts))
	found, err := a.witnessSearch(q, 0, memo, &budget, &path)
	a.resetState()
	return path, found, err
}

// FormatSteps renders a witness's action schedule with event boundaries,
// e.g. "p1⟨cs begins⟩", suitable for demonstrations.
func FormatSteps(x *model.Execution, steps []WitnessStep) []string {
	out := make([]string, 0, len(steps))
	for _, s := range steps {
		ev := &x.Events[s.Event]
		proc := x.Procs[ev.Proc].Name
		name := ev.Label
		if name == "" {
			name = fmt.Sprintf("e%d", s.Event)
		}
		switch s.Kind {
		case StepBegin:
			out = append(out, fmt.Sprintf("%s: ⟨%s begins⟩", proc, name))
		case StepEnd:
			out = append(out, fmt.Sprintf("%s: ⟨%s ends⟩", proc, name))
		default:
			out = append(out, fmt.Sprintf("%s: %s", proc, x.Ops[s.Op].Stmt))
		}
	}
	return out
}

// witnessSearch mirrors existsAccepted but records the successful path.
// The per-query memo is consulted only for negative entries (a positive
// entry promises a path exists below, so the search just descends — it
// will succeed without re-proving). The recursion depth equals len(*path),
// which indexes the per-depth scratch arenas: the frame's key is derived
// once and survives recursion for the negative memo store.
func (a *Analyzer) witnessSearch(q *pairQuery, flags byte, memo *statetab.Table, budget *int64, path *[]int32) (bool, error) {
	depth := len(*path)
	switch classifyFlags(q, flags, a.settableMask(q)) {
	case +1:
		return a.completePath(budget, path)
	case -1:
		return false, nil
	}
	key := a.keySlot(depth)
	a.packKey(flags, key)
	if v, ok := memo.Lookup(key); ok && !v {
		a.stats.MemoHits++
		return false, nil
	}
	if err := a.budgetCharge(budget); err != nil {
		return false, err
	}
	enabled := a.appendEnabled(a.enabledSlot(depth))
	for _, id := range enabled {
		nf := a.updateFlags(q, flags, id)
		undo := a.step(id)
		*path = append(*path, id)
		ok, err := a.witnessSearch(q, nf, memo, budget, path)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		*path = (*path)[:len(*path)-1]
		a.unstep(id, undo)
	}
	memo.Store(key, false)
	return false, nil
}

// completePath extends path with any completing suffix from the current
// state (guided by the persistent completion memo).
func (a *Analyzer) completePath(budget *int64, path *[]int32) (bool, error) {
	// canComplete is rooted at len(*path): the witnessSearch frames below
	// this depth keep their arena slots intact for their negative-memo
	// stores on the failure path.
	can, err := a.canComplete(budget, len(*path))
	if err != nil || !can {
		return false, err
	}
	// Walk forward greedily: some enabled action always preserves
	// completability when the state can complete. The walk iterates an
	// enabled list while canComplete recurses, so it uses the dedicated
	// walk buffer rather than a depth slot canComplete would clobber.
	start := len(*path)
	for !a.allDone() {
		a.walkEnabled = a.appendEnabled(a.walkEnabled[:0])
		advanced := false
		for _, id := range a.walkEnabled {
			undo := a.step(id)
			can, err := a.canComplete(budget, len(*path)+1)
			if err != nil {
				a.unstep(id, undo)
				return false, err
			}
			if can {
				*path = append(*path, id)
				advanced = true
				break
			}
			a.unstep(id, undo)
		}
		if !advanced {
			return false, fmt.Errorf("core: internal error: completable state has no completable step")
		}
	}
	// The machine state is left advanced deliberately: on success every
	// witnessSearch frame returns true immediately (no unstep runs), and
	// the top level calls resetState.
	_ = start
	return true, nil
}
