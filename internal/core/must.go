package core

import "eventorder/internal/model"

// Structural must-precede pre-check for pair queries.
//
// The relation queries are (co-)NP-hard because of choices: which V or Post
// satisfies which P or Wait (Theorems 1–4). Orderings forced by program
// order, fork/join and the observed shared-data dependences (condition F3)
// involve no choice at all. They are plain reachability over the action
// constraints that enabledAct enforces:
//
//   - an action follows the previous action of its process;
//   - a forked process's first action follows the fork action;
//   - a join follows the joined process's last action (its fork action
//     when the process has no actions);
//   - an action follows its prereqs, the data constraints (none under
//     IgnoreData).
//
// If a chain of these edges leads from u to v (written u →+ v), u executes
// before v in every valid interleaving. The monitored search would prove
// such an ordering only by exhausting the state space, so pair queries
// consult the constraint graph first and skip the search when it already
// rules out every outcome the query accepts.
//
// Soundness: every edge is a constraint the search itself enforces, and the
// pre-check only ever concludes that no accepted interleaving exists. It
// never relies on the observed order being feasible, and it leaves every
// query it cannot refute to the search unchanged (budget, cancellation and
// memo behavior included). Semaphore and event-variable orderings are left
// to the search: they depend on counting, not on reachability.

// pairExcluded reports whether the constraint graph alone rules out every
// interval outcome q.accept admits. In a complete interleaving, distinct
// events a and b end in exactly one of three outcomes, each with its own
// final monitor flags:
//
//	a T b    flags == flagAB          impossible if begin(b) →+ end(a)
//	b T a    flags == flagBA          impossible if begin(a) →+ end(b)
//	overlap  flags == flagAB|flagBA   impossible if end(a) →+ begin(b) or
//	                                  end(b) →+ begin(a), or if both events
//	                                  are single sync actions
//
// A true result means no accepted interleaving exists.
func (a *Analyzer) pairExcluded(q *pairQuery) bool {
	if q.accept(flagAB | flagBA) {
		atomic := q.aBegin == q.aEnd && q.bBegin == q.bEnd
		if !atomic && !a.mustPrecede(q.aEnd, q.bBegin) && !a.mustPrecede(q.bEnd, q.aBegin) {
			return false
		}
	}
	if q.accept(flagAB) && !a.mustPrecede(q.bBegin, q.aEnd) {
		return false
	}
	if q.accept(flagBA) && !a.mustPrecede(q.aBegin, q.bEnd) {
		return false
	}
	return true
}

// mustPrecede reports whether u →+ v in the constraint graph. It searches
// backward from v over the predecessor edges listed above, marking visited
// actions with a per-call epoch so the scratch needs no clearing. Reaching
// any action of u's process at or after u proves the path (program order
// supplies the rest). An action of u's process before u is not expanded:
// u reaches it only through a cycle, which the constraints of a validated
// execution do not have, and a missed path only leaves a query to the
// search.
func (a *Analyzer) mustPrecede(u, v int32) bool {
	up, ui := a.acts[u].proc, a.acts[u].idx
	if a.acts[v].proc == up {
		return ui < a.acts[v].idx
	}
	if a.mustSeen == nil {
		// Each action is pushed at most once, so the stack never regrows.
		a.mustSeen = make([]uint32, len(a.acts))
		a.mustStack = make([]int32, 0, len(a.acts))
	}
	a.mustEpoch++
	if a.mustEpoch == 0 { // wrapped: forget every stale mark
		clear(a.mustSeen)
		a.mustEpoch = 1
	}
	a.mustSeen[v] = a.mustEpoch
	a.mustStack = append(a.mustStack[:0], v)
	for len(a.mustStack) > 0 {
		x := a.mustStack[len(a.mustStack)-1]
		a.mustStack = a.mustStack[:len(a.mustStack)-1]
		act := &a.acts[x]
		var pred int32
		if act.idx > 0 {
			pred = a.procActs[act.proc][act.idx-1]
		} else {
			pred = a.startAct(act.proc)
		}
		if a.mustVisit(pred, up, ui) {
			return true
		}
		if act.kind == actSync && act.opKind == model.OpJoin && a.mustVisit(a.finishAct(act.obj), up, ui) {
			return true
		}
		for _, pre := range act.prereqs {
			if a.mustVisit(pre, up, ui) {
				return true
			}
		}
	}
	return false
}

// mustVisit handles predecessor pred of mustPrecede's backward search for
// action idx ui of process up. It reports whether pred closes the path, and
// otherwise queues pred for expansion unless pred is -1 (no predecessor),
// already seen, or an action of up before ui.
func (a *Analyzer) mustVisit(pred, up, ui int32) bool {
	if pred < 0 {
		return false
	}
	if p := &a.acts[pred]; p.proc == up {
		return p.idx >= ui
	}
	if a.mustSeen[pred] != a.mustEpoch {
		a.mustSeen[pred] = a.mustEpoch
		a.mustStack = append(a.mustStack, pred)
	}
	return false
}

// startAct returns the fork action that starts process p, or -1 for a
// root process.
func (a *Analyzer) startAct(p int32) int32 {
	parent := a.parentOf[p]
	if parent < 0 {
		return -1
	}
	return a.procActs[parent][a.forkActIdx[p]]
}

// finishAct returns the action after which process p counts as finished:
// its last action, or the fork action that starts it when it has none (-1
// for an empty root process).
func (a *Analyzer) finishAct(p int32) int32 {
	if n := len(a.procActs[p]); n > 0 {
		return a.procActs[p][n-1]
	}
	return a.startAct(p)
}
