package core

import (
	"math/bits"

	"eventorder/internal/model"
)

// Completeness certificate (DESIGN S44).
//
// Every edge of the constraint graph (must.go) holds in every feasible
// complete interleaving, so the feasible interleavings are among the
// graph's linear extensions, and Excluded is sound. The converse fails
// only where a count can bind: a P that finds its semaphore at 0, a V
// that finds a binary semaphore at 1, a Wait that finds its variable
// clear. When no count can bind in any linear extension, every linear
// extension runs each action enabled (program order, fork/join and the
// data prereqs are edges of the graph), so the feasible interleavings are
// exactly the linear extensions, no valid prefix deadlocks (each is a
// prefix of some extension), and Excluded is exact: for distinct actions
// u and v some linear extension puts u before v unless v →+ u, and one
// overlaps events a and b unless end(a) →+ begin(b), end(b) →+ begin(a)
// or both are single actions — adding the edges begin(b) → end(a) and
// begin(a) → end(b) then closes no cycle. The relations are hard only
// because of choices (Theorems 1–4); a certified execution has none left.

// Certified reports whether the completeness certificate holds: no
// semaphore or event-variable count can bind in any linear extension of
// the constraint graph, so Excluded rules out exactly the outcomes no
// feasible complete interleaving has. The first call closes the graph,
// like Excluded.
func (a *Analyzer) Certified() bool {
	if a.reach == nil {
		a.closeGraph()
	}
	return a.certified
}

// Sync events of one semaphore or event variable, by role; the group
// index is supplyGroup's.
const (
	roleTake  = iota // P, Wait
	roleGive         // V, Post
	roleClear        // Clear
	numRoles
)

// certify evaluates the certificate over closeGraph's rows. A sync event
// is one action, so the begin half of an action's row lists the sync
// events that reach it, the action's own included. With per-group masks
// of the events of each role, the certificate holds when:
//
//   - every P on a semaphore with initial value c has
//     c + (V's on it that reach the P) − (other P's on it that the P does
//     not reach) ≥ 1: the V's that reach it run before it and at most the
//     other P's it does not reach do, so the count is positive whenever it
//     runs;
//   - every V on a binary semaphore has
//     c + (other V's on it that it does not reach) − (P's on it that reach
//     it) ≤ 0: the count is then at most 0 when it runs, and never
//     negative, so it is 0;
//   - every Wait is reached by a Post of its variable, and each Clear of
//     the variable reaches that Post or is reached by the Wait; or the
//     variable starts posted and the Wait reaches every Clear. No Clear
//     then runs between the Post (or the start) and the Wait.
func (a *Analyzer) certify() bool {
	words := a.reachWords
	nsem := int32(len(a.semInit))
	ngroups := int(nsem) + len(a.evNames)
	// One backing array: the role masks of every group, then the Clears
	// a Wait does not reach.
	scratch := make([]uint64, (numRoles*ngroups+1)*words)
	mask := func(g int32, role int) []uint64 {
		i := (numRoles*int(g) + role) * words
		return scratch[i : i+words : i+words]
	}
	unordered := scratch[numRoles*ngroups*words:]
	for id := range a.acts {
		act := &a.acts[id]
		if act.kind != actSync {
			continue
		}
		g, role := a.supplyGroup(int32(id)), roleGive
		switch act.opKind {
		case model.OpAcquire, model.OpWait:
			role = roleTake
		case model.OpClear:
			g, role = nsem+act.obj, roleClear
		case model.OpRelease, model.OpPost:
		default:
			continue
		}
		setEventBit(mask(g, role), act.event)
	}
	// syncRow lists the sync events that reach sync event e, e included.
	syncRow := func(e int32) []uint64 {
		i := 2 * words * int(a.evBeginAct[e])
		return a.reach[i : i+words]
	}

	// after counts, per P and per V on a binary semaphore, the others of
	// its role on its semaphore that it reaches; countAfter fills it for
	// the events of one mask.
	after := make([]int32, len(a.x.Events))
	countAfter := func(m []uint64) {
		eachEvent(m, func(e int32) bool {
			for w, x := range syncRow(e) {
				x &= m[w]
				if w == int(e/64) {
					x &^= 1 << uint(e%64) // e does not reach itself
				}
				for ; x != 0; x &= x - 1 {
					after[w*64+bits.TrailingZeros64(x)]++
				}
			}
			return true
		})
	}
	for s := int32(0); s < nsem; s++ {
		c := a.semInit[s]
		ps, vs := mask(s, roleTake), mask(s, roleGive)
		nP, nV := countBits(ps), countBits(vs)
		countAfter(ps)
		if a.semBinary[s] {
			countAfter(vs)
		}
		ok := eachEvent(ps, func(e int32) bool {
			return c+countAnd(syncRow(e), vs)-(nP-1-after[e]) >= 1
		})
		if ok && a.semBinary[s] {
			ok = eachEvent(vs, func(e int32) bool {
				return c+(nV-1-after[e])-countAnd(syncRow(e), ps) <= 0
			})
		}
		if !ok {
			return false
		}
	}

	for v := int32(0); v < int32(len(a.evNames)); v++ {
		g := nsem + v
		posts, clears := mask(g, roleGive), mask(g, roleClear)
		posted := a.evInit[v/64]&(1<<uint(v%64)) != 0
		ok := eachEvent(mask(g, roleTake), func(wait int32) bool {
			clear(unordered)
			eachEvent(clears, func(c int32) bool {
				if !hasEventBit(syncRow(c), wait) {
					setEventBit(unordered, c)
				}
				return true
			})
			if posted && countBits(unordered) == 0 {
				return true
			}
			row := syncRow(wait)
			found := false
			for w := range row {
				for x := row[w] & posts[w]; x != 0 && !found; x &= x - 1 {
					found = subsetOf(unordered, syncRow(int32(w*64+bits.TrailingZeros64(x))))
				}
			}
			return found
		})
		if !ok {
			return false
		}
	}
	return true
}

// eachEvent calls fn on the events of m in increasing order until fn
// returns false, and reports whether it never did.
func eachEvent(m []uint64, fn func(e int32) bool) bool {
	for w, x := range m {
		for ; x != 0; x &= x - 1 {
			if !fn(int32(w*64 + bits.TrailingZeros64(x))) {
				return false
			}
		}
	}
	return true
}

func setEventBit(m []uint64, e int32) { m[e/64] |= 1 << uint(e%64) }

func hasEventBit(m []uint64, e int32) bool { return m[e/64]&(1<<uint(e%64)) != 0 }

// countBits returns the number of events in m.
func countBits(m []uint64) int32 {
	n := 0
	for _, x := range m {
		n += bits.OnesCount64(x)
	}
	return int32(n)
}

// countAnd returns the number of events in both m and o.
func countAnd(m, o []uint64) int32 {
	n := 0
	for w, x := range m {
		n += bits.OnesCount64(x & o[w])
	}
	return int32(n)
}

// subsetOf reports whether every event of m is in o.
func subsetOf(m, o []uint64) bool {
	for w, x := range m {
		if x&^o[w] != 0 {
			return false
		}
	}
	return true
}
