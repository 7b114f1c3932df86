package core

import (
	"cmp"
	"slices"

	"eventorder/internal/model"
)

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
// Semaphore counting adds supply edges: V→P orderings that the counters
// force with no choice left (see deriveSupply). Which V satisfies which P
// in general, and every event-variable ordering, is left to the search.
//
// Soundness: every edge holds in every complete valid interleaving, and the
// pre-check only ever concludes that no accepted interleaving exists. It
// never relies on the observed order being feasible, and it leaves every
// query it cannot refute to the search unchanged (budget, cancellation and
// memo behavior included).

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
// backward from v over the predecessor edges listed above and the supply
// edges, marking visited actions with a per-call epoch so the scratch needs
// no clearing. Reaching any action of u's process at or after u proves the
// path (program order supplies the rest). An action of u's process before u
// is not expanded: u reaches it only through a cycle, which the edges of an
// execution with a complete interleaving (a validated one has its observed
// order) do not have, and a missed path only leaves a query to the search.
func (a *Analyzer) mustPrecede(u, v int32) bool {
	up, ui := a.acts[u].proc, a.acts[u].idx
	if a.acts[v].proc == up {
		return ui < a.acts[v].idx
	}
	if a.mustSeen == nil {
		a.initMust()
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
		sp := a.supplySpan[x]
		for _, pre := range a.supplyPred[sp.lo:sp.hi] {
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

// initMust allocates the pre-check scratch and derives the supply edges.
// It runs once per analyzer, on the first pair query, so core.New and the
// matrix path pay nothing.
func (a *Analyzer) initMust() {
	// Each action is pushed at most once, so the stack never regrows.
	a.mustSeen = make([]uint32, len(a.acts))
	a.mustStack = make([]int32, 0, len(a.acts))
	a.deriveSupply()
}

// supplySpan locates a P action's supply predecessors in supplyPred.
type supplySpan struct{ lo, hi int32 }

// supplyRun is one process's V actions on a semaphore: vs[start:start+n].
type supplyRun struct{ proc, start, n int32 }

// semOf returns the semaphore a P or V action operates on, or -1.
func (a *Analyzer) semOf(id int32) int32 {
	if act := &a.acts[id]; act.opKind == model.OpAcquire || act.opKind == model.OpRelease {
		return act.obj
	}
	return -1
}

// deriveSupply records the supply edges: V→P orderings that semaphore
// counting and program order force on their own.
//
// Take a P action p on semaphore s with initial value c, and k earlier P's
// on s in p's process π. When p runs the semaphore holds
// c + V_before − P_before ≥ 1 with P_before ≥ k, so at least
// need = k+1−c V's on s run before p, all from the candidates C: the V's on
// s except those after p in π. If another process q holds m_q V's on s, the
// other processes hold at most |C| − m_q candidates, so when
// t = need − (|C| − m_q) ≥ 1, q runs t V's before p — in program order, so
// q's t-th V precedes p. That one edge suffices: program order orders q's
// earlier V's. Binary semaphores obey the same count; their extra V
// constraint only removes interleavings.
//
// t ≥ 1 exactly when m_q > slack = |C| − need, so each semaphore's
// processes are visited in decreasing m_q order, stopping at the first with
// m_q ≤ slack. Derivation costs O(A + S log S + E) for A actions, S
// semaphore actions and E edges, in a constant number of flat slices.
func (a *Analyzer) deriveSupply() {
	nsem := int32(len(a.semInit))
	// Group the semaphore actions by semaphore with a stable counting sort:
	// ops[off[s]:off[s+1]] are s's actions in action id order, which New
	// assigns process by process in program order.
	off := make([]int32, nsem+2)
	for id := range a.acts {
		if s := a.semOf(int32(id)); s >= 0 {
			off[s+2]++
		}
	}
	for s := 2; s < len(off); s++ {
		off[s] += off[s-1]
	}
	ops := make([]int32, off[nsem+1])
	for id := range a.acts {
		if s := a.semOf(int32(id)); s >= 0 {
			ops[off[s+1]] = int32(id)
			off[s+1]++
		}
	}

	a.supplySpan = make([]supplySpan, len(a.acts))
	a.supplyPred = make([]int32, 0, len(ops))
	vs := make([]int32, 0, len(ops))
	runs := make([]supplyRun, 0, len(ops))
	for s := int32(0); s < nsem; s++ {
		group := ops[off[s]:off[s+1]]
		vs, runs = vs[:0], runs[:0]
		for _, id := range group {
			act := &a.acts[id]
			if act.opKind != model.OpRelease {
				continue
			}
			if len(runs) == 0 || runs[len(runs)-1].proc != act.proc {
				runs = append(runs, supplyRun{proc: act.proc, start: int32(len(vs))})
			}
			vs = append(vs, id)
			runs[len(runs)-1].n++
		}
		slices.SortFunc(runs, func(x, y supplyRun) int { return cmp.Compare(y.n, x.n) })
		total := int32(len(vs))
		for i := 0; i < len(group); {
			// group[i:j] are process π's actions on s.
			pi := a.acts[group[i]].proc
			j, own := i, int32(0)
			for ; j < len(group) && a.acts[group[j]].proc == pi; j++ {
				if a.acts[group[j]].opKind == model.OpRelease {
					own++
				}
			}
			var k, ownBefore int32
			for _, id := range group[i:j] {
				if a.acts[id].opKind == model.OpRelease {
					ownBefore++
					continue
				}
				need := k + 1 - a.semInit[s]
				k++
				slack := total - (own - ownBefore) - need
				// need > |C| (slack < 0) means p can never run: no
				// complete interleaving exists and there is nothing to
				// record.
				if need <= 0 || slack < 0 {
					continue
				}
				lo := int32(len(a.supplyPred))
				for _, r := range runs {
					if r.n <= slack {
						break
					}
					if r.proc != pi {
						a.supplyPred = append(a.supplyPred, vs[r.start+r.n-slack-1])
					}
				}
				a.supplySpan[id] = supplySpan{lo, int32(len(a.supplyPred))}
			}
			i = j
		}
	}
}
