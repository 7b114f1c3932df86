package core

import (
	"cmp"
	"fmt"
	"slices"

	"eventorder/internal/model"
)

// Structural must-precede facts, for pair queries and matrix seeds.
//
// The relation queries are (co-)NP-hard because of choices: which V or Post
// satisfies which P or Wait (Theorems 1–4). Orderings forced without a
// choice are plain reachability over the action constraints that enabledAct
// enforces. An action's constraint predecessors (preds) are:
//
//   - the previous action of its process, or for a forked process's first
//     action the fork action;
//   - for a join, the joined process's last action (its fork action when
//     the process has no actions);
//   - its prereqs, the data constraints (none under IgnoreData);
//   - its supply edges: the V's a P and the Post a Wait cannot run without,
//     forced by counting with no choice left (see deriveSupply).
//
// If a chain of these edges leads from u to v (written u →+ v), u executes
// before v in every valid interleaving. The monitored search would prove
// such an ordering only by exhausting the state space, so the first pair
// query, Excluded or Certified call closes the graph once over event
// endpoints (closeGraph), and pair queries skip the search when the
// closure already rules out every outcome they accept; matrix seeds read
// the same closure through Excluded. Which V satisfies which P or which
// Post satisfies which Wait in general is left to the search, except on a
// certified execution, where no such choice is left (certify.go).
//
// Soundness: every edge holds in every complete valid interleaving, and the
// graph only ever rules outcomes out. It never relies on the observed order
// being feasible, and it leaves every query it cannot refute to the search
// unchanged (budget, cancellation and memo behavior included).

// Outcome is a set of the ways two distinct events a and b can end up in a
// complete interleaving: exactly one of the three holds in each.
type Outcome uint8

const (
	// OutcomeAB is a wholly before b (a T b).
	OutcomeAB Outcome = 1 << iota
	// OutcomeBA is b wholly before a (b T a).
	OutcomeBA
	// OutcomeOverlap is neither: the two intervals overlap.
	OutcomeOverlap
)

// flags returns the final monitor flags of the single outcome o.
func (o Outcome) flags() byte {
	switch o {
	case OutcomeAB:
		return flagAB
	case OutcomeBA:
		return flagBA
	}
	return flagAB | flagBA
}

// rulesOut reports whether the constraint graph rules out the single
// outcome o for q's events, reading u →+ v for event endpoints u and v from
// the closure:
//
//	a T b    impossible if begin(b) →+ end(a)
//	b T a    impossible if begin(a) →+ end(b)
//	overlap  impossible if end(a) →+ begin(b) or end(b) →+ begin(a), or if
//	         both events are single sync actions
func (a *Analyzer) rulesOut(q *pairQuery, o Outcome) bool {
	switch o {
	case OutcomeAB:
		return a.reaches(q.bBegin, q.aEnd)
	case OutcomeBA:
		return a.reaches(q.aBegin, q.bEnd)
	}
	return q.aBegin == q.aEnd && q.bBegin == q.bEnd || a.reaches(q.aEnd, q.bBegin) || a.reaches(q.bEnd, q.aBegin)
}

// openOutcome returns the first outcome q accepts that the constraint
// graph does not rule out, trying overlap, then a T b, then b T a, or 0
// when it rules out every accepted outcome, so that no accepted
// interleaving exists. The first call closes the graph.
func (a *Analyzer) openOutcome(q *pairQuery) Outcome {
	if a.reach == nil {
		a.closeGraph()
	}
	for _, o := range [...]Outcome{OutcomeOverlap, OutcomeAB, OutcomeBA} {
		if q.accept(o.flags()) && !a.rulesOut(q, o) {
			return o
		}
	}
	return 0
}

// Excluded returns the outcomes of the distinct events ea and eb that the
// constraint graph rules out in every complete valid interleaving, by the
// rules the pair pre-check applies. The first call, like the first pair
// query, closes the graph over event endpoints (closeGraph).
func (a *Analyzer) Excluded(ea, eb model.EventID) Outcome {
	if a.reach == nil {
		a.closeGraph()
	}
	q := pairQuery{
		aBegin: a.evBeginAct[ea], aEnd: a.evEndAct[ea],
		bBegin: a.evBeginAct[eb], bEnd: a.evEndAct[eb],
	}
	var out Outcome
	for o := OutcomeAB; o <= OutcomeOverlap; o <<= 1 {
		if a.rulesOut(&q, o) {
			out |= o
		}
	}
	return out
}

// linkPreds lists every action's constraint predecessors in one flat
// array — the one place the edge rules of the header are written — so that
// action x's are predList[predSpan[x].lo:predSpan[x].hi]: the previous
// action of its process or the fork that starts it, for a join the joined
// process's finish, its data prereqs, and its supply edges.
func (a *Analyzer) linkPreds() {
	supplySpan, supplyPred := a.deriveSupply()
	// predSpan takes over supplySpan's array: slot x is read just before
	// it is overwritten.
	a.predSpan = supplySpan
	a.predList = make([]int32, 0, 2*len(a.acts)+len(supplyPred))
	for x := range a.acts {
		act := &a.acts[x]
		lo := int32(len(a.predList))
		if act.idx > 0 {
			a.predList = append(a.predList, a.procActs[act.proc][act.idx-1])
		} else if start := a.startAct(act.proc); start >= 0 {
			a.predList = append(a.predList, start)
		}
		if act.kind == actSync && act.opKind == model.OpJoin {
			if finish := a.finishAct(act.obj); finish >= 0 {
				a.predList = append(a.predList, finish)
			}
		}
		a.predList = append(a.predList, act.prereqs...)
		sp := supplySpan[x]
		a.predList = append(a.predList, supplyPred[sp.lo:sp.hi]...)
		a.predSpan[x] = span{lo, int32(len(a.predList))}
	}
}

// preds returns action x's constraint predecessors (linkPreds).
func (a *Analyzer) preds(x int32) []int32 {
	sp := a.predSpan[x]
	return a.predList[sp.lo:sp.hi]
}

// linearize calls emit on every action in the order of a linear
// extension of the constraint graph with the edges of added joined in
// (added[k][1] → added[k][0]; entries with a negative target are unused,
// and no two name one target), and reports whether that graph is acyclic.
// It is an iterative depth-first search over preds from each process's
// last action, which reaches every action through program order; an
// action is emitted once its predecessors are. An edge that would close a
// cycle is skipped, so on a cyclic graph the order only misses some
// edges. Program order is each action's first predecessor, so the order
// runs process 0 as far as it can, bringing in just before they are
// needed the actions of other processes it waits for, then process 1, and
// so on.
func (a *Analyzer) linearize(added [2][2]int32, emit func(x int32)) bool {
	const (
		unseen = iota
		open
		done
	)
	state := make([]uint8, len(a.acts))
	type frame struct{ x, i int32 }
	stack := make([]frame, 0, len(a.acts))
	acyclic := true
	for p := range a.procActs {
		n := len(a.procActs[p])
		if n == 0 || state[a.procActs[p][n-1]] != unseen {
			continue
		}
		stack = append(stack, frame{a.procActs[p][n-1], 0})
		state[a.procActs[p][n-1]] = open
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			ps := a.preds(f.x)
			next := int32(-1)
			for next < 0 && int(f.i) <= len(ps) {
				u := int32(-1)
				if int(f.i) < len(ps) {
					u = ps[f.i]
				} else if added[0][0] == f.x {
					u = added[0][1]
				} else if added[1][0] == f.x {
					u = added[1][1]
				}
				f.i++
				switch {
				case u < 0 || state[u] == done:
				case state[u] == open:
					acyclic = false
				default:
					next = u
				}
			}
			if next < 0 {
				state[f.x] = done
				emit(f.x)
				stack = stack[:len(stack)-1]
				continue
			}
			state[next] = open
			stack = append(stack, frame{next, 0})
		}
	}
	return acyclic
}

// noEdges is linearize's argument for the constraint graph alone.
var noEdges = [2][2]int32{{-1, -1}, {-1, -1}}

// closeGraph records, for every action x, the events whose begin reaches x
// and the events whose end reaches x (x's own event included when x is
// that endpoint): 2n bits per action for n events, in one backing array.
// It is one pass over the actions in a linear extension of the graph
// (linearize), so an action's predecessors are closed before it. It then
// evaluates the completeness certificate over the rows (certify), which
// needs an acyclic graph: a validated execution's observed order is a
// linear extension, so only an unscheduled one can have a cycle, and then
// no complete interleaving exists and the rows only miss some paths.
func (a *Analyzer) closeGraph() {
	if a.predSpan == nil {
		a.linkPreds()
	}
	words := (len(a.x.Events) + 63) / 64
	a.reachWords = words
	a.reach = make([]uint64, 2*words*len(a.acts))
	acyclic := a.linearize(noEdges, func(x int32) {
		row := a.reach[2*words*int(x) : 2*words*(int(x)+1)]
		for _, pred := range a.preds(x) {
			for w, bits := range a.reach[2*words*int(pred) : 2*words*(int(pred)+1)] {
				row[w] |= bits
			}
		}
		act := &a.acts[x]
		bit := uint64(1) << uint(act.event%64)
		if act.kind != actAccess && act.kind != actEnd { // x begins its event
			row[act.event/64] |= bit
		}
		if act.kind == actEnd || act.kind == actSync { // x ends its event
			row[words+int(act.event/64)] |= bit
		}
	})
	a.certified = acyclic && a.certify()
}

// extension returns a certified analyzer's witness for the open outcome o
// of q: the actions of a linear extension of the constraint graph with
// o's edges added (DESIGN S45). a T b adds end(a) → begin(b), b T a adds
// end(b) → begin(a), and overlap adds begin(a) → end(b) and
// begin(b) → end(a). The closure leaves o open, so the edges close no
// cycle, and on a certified execution every linear extension is a
// feasible interleaving; this one has outcome o. No state is expanded.
func (a *Analyzer) extension(q *pairQuery, o Outcome) ([]int32, error) {
	added := noEdges
	switch o {
	case OutcomeAB:
		added[0] = [2]int32{q.bBegin, q.aEnd}
	case OutcomeBA:
		added[0] = [2]int32{q.aBegin, q.bEnd}
	default:
		added = [2][2]int32{{q.bEnd, q.aBegin}, {q.aEnd, q.bBegin}}
	}
	path := make([]int32, 0, len(a.acts))
	if !a.linearize(added, func(x int32) { path = append(path, x) }) {
		return nil, fmt.Errorf("core: internal error: the edges of an open outcome close a cycle")
	}
	return path, nil
}

// reaches reports u →+ v for an event endpoint u and an action v of
// another event, reading closeGraph's rows.
func (a *Analyzer) reaches(u, v int32) bool {
	act := &a.acts[u]
	i := 2*a.reachWords*int(v) + int(act.event/64)
	if act.kind == actEnd {
		i += a.reachWords
	}
	return a.reach[i]&(1<<uint(act.event%64)) != 0
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

// span locates one action's entries in a flat per-action list.
type span struct{ lo, hi int32 }

// supplyRun is one process's suppliers in a supply group:
// vs[start:start+n].
type supplyRun struct{ proc, start, n int32 }

// supplyGroup returns the supply group of a P, V, Post or Wait action — its
// semaphore, or the number of semaphores plus its event variable — or -1.
func (a *Analyzer) supplyGroup(id int32) int32 {
	switch act := &a.acts[id]; act.opKind {
	case model.OpAcquire, model.OpRelease:
		return act.obj
	case model.OpPost, model.OpWait:
		return int32(len(a.semInit)) + act.obj
	}
	return -1
}

// deriveSupply returns the supply edges: V→P and Post→Wait orderings that
// counting and program order force on their own. The V or Post actions
// forced before P or Wait action id are preds[spans[id].lo:spans[id].hi].
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
// A Wait is such a P that leaves the count alone, with Posts for V's and
// c = 1 when its variable starts posted, 0 when clear: a Wait on a variable
// that starts clear runs after some Post of it (need = 1), so when every
// candidate Post lies in one other process, that process's first candidate
// precedes the Wait. Clears only ever unpost a variable, so they do not
// weaken the argument.
//
// t ≥ 1 exactly when m_q > slack = |C| − need, so each group's processes
// are visited in decreasing m_q order, stopping at the first with
// m_q ≤ slack. Derivation costs O(A + S log S + E) for A actions, S
// supply-group actions and E edges, in a constant number of flat slices.
func (a *Analyzer) deriveSupply() (spans []span, preds []int32) {
	nsem := int32(len(a.semInit))
	ngroups := nsem + int32(len(a.evNames))
	// Group the supply actions with a stable counting sort:
	// ops[off[g]:off[g+1]] are group g's actions in action id order, which
	// New assigns process by process in program order.
	off := make([]int32, ngroups+2)
	for id := range a.acts {
		if g := a.supplyGroup(int32(id)); g >= 0 {
			off[g+2]++
		}
	}
	for g := 2; g < len(off); g++ {
		off[g] += off[g-1]
	}
	ops := make([]int32, off[ngroups+1])
	for id := range a.acts {
		if g := a.supplyGroup(int32(id)); g >= 0 {
			ops[off[g+1]] = int32(id)
			off[g+1]++
		}
	}

	spans = make([]span, len(a.acts))
	preds = make([]int32, 0, len(ops))
	vs := make([]int32, 0, len(ops))
	runs := make([]supplyRun, 0, len(ops))
	supplies := func(id int32) bool {
		k := a.acts[id].opKind
		return k == model.OpRelease || k == model.OpPost
	}
	for g := int32(0); g < ngroups; g++ {
		group := ops[off[g]:off[g+1]]
		var c int32
		if g < nsem {
			c = a.semInit[g]
		} else if v := g - nsem; a.evInit[v/64]&(1<<uint(v%64)) != 0 {
			c = 1
		}
		vs, runs = vs[:0], runs[:0]
		for _, id := range group {
			if !supplies(id) {
				continue
			}
			if p := a.acts[id].proc; len(runs) == 0 || runs[len(runs)-1].proc != p {
				runs = append(runs, supplyRun{proc: p, start: int32(len(vs))})
			}
			vs = append(vs, id)
			runs[len(runs)-1].n++
		}
		slices.SortFunc(runs, func(x, y supplyRun) int { return cmp.Compare(y.n, x.n) })
		total := int32(len(vs))
		for i := 0; i < len(group); {
			// group[i:j] are process π's actions in the group.
			pi := a.acts[group[i]].proc
			j, own := i, int32(0)
			for ; j < len(group) && a.acts[group[j]].proc == pi; j++ {
				if supplies(group[j]) {
					own++
				}
			}
			var k, ownBefore int32
			for _, id := range group[i:j] {
				if supplies(id) {
					ownBefore++
					continue
				}
				need := k + 1 - c
				if a.acts[id].opKind == model.OpAcquire {
					k++
				}
				slack := total - (own - ownBefore) - need
				// need > |C| (slack < 0) means the action can never run:
				// no complete interleaving exists and there is nothing to
				// record.
				if need <= 0 || slack < 0 {
					continue
				}
				lo := int32(len(preds))
				for _, r := range runs {
					if r.n <= slack {
						break
					}
					if r.proc != pi {
						preds = append(preds, vs[r.start+r.n-slack-1])
					}
				}
				spans[id] = span{lo, int32(len(preds))}
			}
			i = j
		}
	}
	return spans, preds
}
