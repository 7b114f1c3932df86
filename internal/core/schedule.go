package core

import (
	"errors"

	"eventorder/internal/model"
)

// ErrTruncated is returned by the enumeration functions when the limit is
// reached before the interleaving space is exhausted.
var ErrTruncated = errors.New("core: schedule enumeration truncated at limit")

// CanComplete reports whether any complete valid interleaving exists from
// the initial state. For an execution whose observed order satisfies the
// analyzer's constraints this is always true; it is informative under
// hand-modified executions or added constraints.
func (a *Analyzer) CanComplete() (bool, error) {
	a.symmetry()
	a.resetState()
	budget := a.opts.MaxNodes
	return a.canComplete(&budget, 0)
}

// FindSchedule returns one complete valid interleaving as an op-level order
// (the projection of the action schedule onto access and synchronization
// actions), using the persistent completion memo to avoid re-exploring dead
// subtrees. ok=false means every interleaving deadlocks before performing
// all events.
func (a *Analyzer) FindSchedule() (order []model.OpID, ok bool, err error) {
	a.symmetry()
	a.resetState()
	budget := a.opts.MaxNodes
	can, err := a.canComplete(&budget, 0)
	if err != nil {
		return nil, false, err
	}
	if !can {
		return nil, false, nil
	}
	order = make([]model.OpID, 0, len(a.x.Ops))
	for !a.allDone() {
		// The walk iterates an enabled list while canComplete recurses, so
		// it uses the dedicated walk buffer, not a depth slot.
		a.walkEnabled = a.appendEnabled(a.walkEnabled[:0])
		advanced := false
		for _, id := range a.walkEnabled {
			undo := a.step(id)
			can, err := a.canComplete(&budget, 0)
			if err != nil {
				a.unstep(id, undo)
				return nil, false, err
			}
			if can {
				if op := a.acts[id].op; op >= 0 {
					order = append(order, model.OpID(op))
				}
				advanced = true
				break
			}
			a.unstep(id, undo)
		}
		if !advanced {
			// Cannot happen: canComplete held at the previous state.
			return nil, false, errors.New("core: internal error: no completable step")
		}
	}
	a.resetState()
	return order, true, nil
}

// enumerateActions invokes fn with every complete valid action interleaving
// in deterministic depth-first order. The slice passed to fn is reused.
// At most limit schedules are produced when limit > 0; hitting the limit
// returns ErrTruncated with the count so far.
func (a *Analyzer) enumerateActions(limit int, fn func(acts []int32) bool) (int, error) {
	a.resetState()
	seq := make([]int32, 0, len(a.acts))
	count := 0
	var truncated, stopped bool
	var rec func()
	rec = func() {
		if stopped {
			return
		}
		if a.allDone() {
			count++
			if !fn(seq) {
				stopped = true
				return
			}
			if limit > 0 && count >= limit {
				stopped = true
				truncated = true
			}
			return
		}
		enabled := a.appendEnabled(a.enabledSlot(len(seq)))
		for _, id := range enabled {
			undo := a.step(id)
			seq = append(seq, id)
			rec()
			seq = seq[:len(seq)-1]
			a.unstep(id, undo)
			if stopped {
				return
			}
		}
	}
	rec()
	a.resetState()
	if truncated {
		return count, ErrTruncated
	}
	return count, nil
}

// EnumerateSchedules invokes fn with every complete valid interleaving,
// projected to op level, in deterministic depth-first order. Distinct
// action interleavings with the same op projection are reported once per
// action interleaving (callers wanting op-level uniqueness can dedupe).
// The slice passed to fn is reused; copy to retain. At most limit schedules
// are produced when limit > 0.
func (a *Analyzer) EnumerateSchedules(limit int, fn func(order []model.OpID) bool) (int, error) {
	ops := make([]model.OpID, 0, len(a.x.Ops))
	return a.enumerateActions(limit, func(acts []int32) bool {
		ops = ops[:0]
		for _, id := range acts {
			if op := a.acts[id].op; op >= 0 {
				ops = append(ops, model.OpID(op))
			}
		}
		return fn(ops)
	})
}

// CountSchedules returns the number of feasible action interleavings, up to
// limit (0 = unbounded; beware exponential counts).
func (a *Analyzer) CountSchedules(limit int) (int, error) {
	return a.enumerateActions(limit, func([]int32) bool { return true })
}
