package core

import (
	"context"
	"fmt"
	"strings"

	"eventorder/internal/model"
	"eventorder/internal/statetab"
)

// RelKind names one of the six ordering relations of the paper's Table 1.
type RelKind int

const (
	// RelMHB: a MHB b ⇔ in every feasible execution, a completes before b
	// begins (must-have-happened-before).
	RelMHB RelKind = iota
	// RelCHB: a CHB b ⇔ in some feasible execution, a completes before b
	// begins (could-have-happened-before).
	RelCHB
	// RelMCW: a MCW b ⇔ in every feasible execution, a and b overlap
	// (must-have-been-concurrent-with).
	RelMCW
	// RelCCW: a CCW b ⇔ in some feasible execution, a and b overlap
	// (could-have-been-concurrent-with).
	RelCCW
	// RelMOW: a MOW b ⇔ in every feasible execution, a and b execute
	// without overlap — in some order (must-have-been-ordered-with).
	RelMOW
	// RelCOW: a COW b ⇔ in some feasible execution, a and b execute
	// without overlap (could-have-been-ordered-with).
	RelCOW
)

var relNames = [...]string{"MHB", "CHB", "MCW", "CCW", "MOW", "COW"}

func (k RelKind) String() string {
	if int(k) >= 0 && int(k) < len(relNames) {
		return relNames[k]
	}
	return fmt.Sprintf("RelKind(%d)", int(k))
}

// ParseRelKind converts a relation name ("MHB", "chb", …) to its kind.
func ParseRelKind(s string) (RelKind, error) {
	for i, name := range relNames {
		if strings.EqualFold(s, name) {
			return RelKind(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown relation %q (want one of MHB CHB MCW CCW MOW COW)", s)
}

// AllRelKinds lists the six relations in Table 1 order.
var AllRelKinds = []RelKind{RelMHB, RelCHB, RelMCW, RelCCW, RelMOW, RelCOW}

// Symmetric reports whether the relation is symmetric by definition (the
// concurrent-with and ordered-with relations are; happened-before is not).
func (k RelKind) Symmetric() bool { return k != RelMHB && k != RelCHB }

// MustHave reports whether the relation quantifies over all feasible
// executions (deciding it is co-NP-hard) rather than over some feasible
// execution (NP-hard).
func (k RelKind) MustHave() bool { return k == RelMHB || k == RelMCW || k == RelMOW }

// Interval-monitor flags. In a complete interleaving:
//
//	flagBA set ⇔ b began before a ended ⇔ ¬(a T b)
//	flagAB set ⇔ a began before b ended ⇔ ¬(b T a)
//
// so a T b ⇔ ¬flagBA, b T a ⇔ ¬flagAB, and overlap ⇔ flagBA ∧ flagAB.
// (¬flagBA ∧ ¬flagAB is impossible for distinct events.)
const (
	flagBA byte = 1 << 0
	flagAB byte = 1 << 1
)

// pairQuery carries the per-query marker actions and acceptance predicate.
type pairQuery struct {
	aBegin, aEnd int32 // begin/end actions of event a
	bBegin, bEnd int32
	accept       func(flags byte) bool
}

// settableMask over-approximates which flags can still become set: flagBA
// is set only while executing b's begin action, flagAB only while executing
// a's begin action.
func (a *Analyzer) settableMask(q *pairQuery) byte {
	var m byte
	if !a.executedAct(q.bBegin) {
		m |= flagBA
	}
	if !a.executedAct(q.aBegin) {
		m |= flagAB
	}
	return m
}

// classifyFlags determines whether acceptance is already decided given the
// current flags and the over-approximate settable mask:
//
//	+1: every possible final flag set is accepted (committed)
//	-1: no possible final flag set is accepted (prune)
//	 0: undecided
func classifyFlags(q *pairQuery, flags, settable byte) int {
	anyAccept, allAccept := false, true
	for sub := byte(0); ; sub = (sub - settable) & settable {
		if q.accept(flags | sub) {
			anyAccept = true
		} else {
			allAccept = false
		}
		if sub == settable {
			break
		}
	}
	switch {
	case !anyAccept:
		return -1
	case allAccept:
		return +1
	}
	return 0
}

// updateFlags returns the monitor flags after executing action id from a
// state with the given flags. Must be called before step(id).
func (a *Analyzer) updateFlags(q *pairQuery, flags byte, id int32) byte {
	if id == q.bBegin && !a.executedAct(q.aEnd) {
		flags |= flagBA
	}
	if id == q.aBegin && !a.executedAct(q.bEnd) {
		flags |= flagAB
	}
	return flags
}

// existsAccepted reports whether some complete valid interleaving from the
// current state, with the given monitor flags, ends with accepted flags.
// depth indexes the per-depth scratch arenas (see canComplete): the node's
// key — with the monitor flags as the extra discriminator — is derived
// once into this frame's slot and survives recursion for the memo store.
// At a +1 (committed) node the flags cannot influence acceptance anymore,
// so the monitored search degenerates to the plain completion search.
func (a *Analyzer) existsAccepted(q *pairQuery, flags byte, memo *statetab.Table, budget *int64, depth int) (bool, error) {
	switch classifyFlags(q, flags, a.settableMask(q)) {
	case +1:
		return a.canComplete(budget, depth)
	case -1:
		return false, nil
	}
	if a.allDone() {
		// Unreachable: with all actions executed the settable mask is zero
		// and classifyFlags decides. Kept for safety.
		return q.accept(flags), nil
	}
	var key []uint64
	if !a.opts.DisableMemo {
		key = a.keySlot(depth)
		a.packKey(flags, key)
		if v, ok := memo.Lookup(key); ok {
			a.stats.MemoHits++
			return v, nil
		}
	}
	if err := a.budgetCharge(budget); err != nil {
		return false, err
	}
	result := false
	for _, id := range a.appendEnabled(a.enabledSlot(depth)) {
		a.stats.Edges++
		nf := a.updateFlags(q, flags, id)
		undo := a.step(id)
		ok, err := a.existsAccepted(q, nf, memo, budget, depth+1)
		a.unstep(id, undo)
		if err != nil {
			return false, err
		}
		if ok {
			result = true
			break
		}
	}
	if !a.opts.DisableMemo {
		memo.Store(key, result)
	}
	return result, nil
}

// newPairQuery validates an event pair and returns its query.
func (a *Analyzer) newPairQuery(ea, eb model.EventID, accept func(flags byte) bool) (*pairQuery, error) {
	if ea == eb {
		return nil, fmt.Errorf("core: query requires distinct events, got %d twice", ea)
	}
	n := model.EventID(len(a.x.Events))
	if ea < 0 || ea >= n || eb < 0 || eb >= n {
		return nil, fmt.Errorf("core: event id out of range")
	}
	return &pairQuery{
		aBegin: a.evBeginAct[ea], aEnd: a.evEndAct[ea],
		bBegin: a.evBeginAct[eb], bEnd: a.evEndAct[eb],
		accept: accept,
	}, nil
}

// exists answers the existential primitive for an event pair: is there a
// feasible execution whose final interval flags satisfy accept? Queries
// the constraint graph's closure refutes (must.go) skip the search, and so
// does every query on a certified execution (certify.go), where an
// accepted outcome the closure leaves open is feasible.
func (a *Analyzer) exists(ea, eb model.EventID, accept func(flags byte) bool) (bool, error) {
	q, err := a.newPairQuery(ea, eb, accept)
	if err != nil {
		return false, err
	}
	if a.openOutcome(q) == 0 {
		return false, nil
	}
	if a.certified {
		return true, nil
	}
	return a.searchExists(q)
}

// searchExists answers q by the monitored search from the initial state.
func (a *Analyzer) searchExists(q *pairQuery) (bool, error) {
	a.symmetry()
	a.resetState()
	budget := a.opts.MaxNodes
	memo := statetab.New(a.keyWords, 0)
	return a.existsAccepted(q, 0, memo, &budget, 0)
}

// relAccept returns the interval-flag acceptance predicate for kind's
// existential primitive, and whether the verdict negates it (must-relations
// search for a violating interleaving and negate the answer).
func relAccept(kind RelKind) (accept func(flags byte) bool, negate bool, err error) {
	switch kind {
	case RelCHB:
		return func(f byte) bool { return f&flagBA == 0 }, false, nil
	case RelMHB:
		return func(f byte) bool { return f&flagBA != 0 }, true, nil
	case RelCCW:
		return func(f byte) bool { return f&(flagBA|flagAB) == flagBA|flagAB }, false, nil
	case RelMOW:
		return func(f byte) bool { return f&(flagBA|flagAB) == flagBA|flagAB }, true, nil
	case RelCOW:
		return func(f byte) bool { return f&(flagBA|flagAB) != flagBA|flagAB }, false, nil
	case RelMCW:
		return func(f byte) bool { return f&(flagBA|flagAB) != flagBA|flagAB }, true, nil
	}
	return nil, false, fmt.Errorf("core: unknown relation kind %d", kind)
}

// decide answers one relation query with whatever context is currently
// installed on the analyzer. All public query surfaces funnel here.
func (a *Analyzer) decide(kind RelKind, ea, eb model.EventID) (bool, error) {
	accept, negate, err := relAccept(kind)
	if err != nil {
		return false, err
	}
	v, err := a.exists(ea, eb, accept)
	if err != nil {
		return false, err
	}
	return v != negate, nil
}

// Decide answers one relation query by kind. It aborts with ctx's error if
// ctx is canceled or its deadline passes mid-search; pass
// context.Background() (or use the named convenience methods MHB, CHB, …)
// when cancellation is not needed.
func (a *Analyzer) Decide(ctx context.Context, kind RelKind, ea, eb model.EventID) (bool, error) {
	var verdict bool
	err := a.withCtx(ctx, func() error {
		var err error
		verdict, err = a.decide(kind, ea, eb)
		return err
	})
	return verdict, err
}

// CHB reports whether a could-have-happened-before b: some feasible
// execution has a T b. It is a thin context.Background() wrapper over
// Decide.
func (a *Analyzer) CHB(ea, eb model.EventID) (bool, error) {
	return a.Decide(context.Background(), RelCHB, ea, eb)
}

// MHB reports whether a must-have-happened-before b: every feasible
// execution has a T b. It is a thin context.Background() wrapper over
// Decide.
func (a *Analyzer) MHB(ea, eb model.EventID) (bool, error) {
	return a.Decide(context.Background(), RelMHB, ea, eb)
}

// CCW reports whether a could-have-executed-concurrently-with b: some
// feasible execution overlaps them. It is a thin context.Background()
// wrapper over Decide.
func (a *Analyzer) CCW(ea, eb model.EventID) (bool, error) {
	return a.Decide(context.Background(), RelCCW, ea, eb)
}

// MCW reports whether a must-have-executed-concurrently-with b: every
// feasible execution overlaps them. It is a thin context.Background()
// wrapper over Decide.
func (a *Analyzer) MCW(ea, eb model.EventID) (bool, error) {
	return a.Decide(context.Background(), RelMCW, ea, eb)
}

// COW reports whether a could-have-been-ordered-with b: some feasible
// execution runs them without overlap (in either order). It is a thin
// context.Background() wrapper over Decide.
func (a *Analyzer) COW(ea, eb model.EventID) (bool, error) {
	return a.Decide(context.Background(), RelCOW, ea, eb)
}

// MOW reports whether a must-have-been-ordered-with b: no feasible
// execution overlaps them. It is a thin context.Background() wrapper over
// Decide.
func (a *Analyzer) MOW(ea, eb model.EventID) (bool, error) {
	return a.Decide(context.Background(), RelMOW, ea, eb)
}

// Relation computes the full relation matrix over all event pairs with
// independent per-pair searches. For symmetric relations only the upper
// triangle is searched. Note that each entry is a (co-)NP-hard decision;
// expect exponential time on adversarial executions — that is the paper's
// point. For full matrices prefer Matrix, which amortizes one exploration
// of the feasibility space across every pair (and every relation kind).
func (a *Analyzer) Relation(ctx context.Context, kind RelKind) (*model.Relation, error) {
	var r *model.Relation
	err := a.withCtx(ctx, func() error {
		var err error
		r, err = a.relation(kind)
		return err
	})
	return r, err
}

func (a *Analyzer) relation(kind RelKind) (*model.Relation, error) {
	n := len(a.x.Events)
	r := model.NewRelation(kind.String(), n)
	for i := 0; i < n; i++ {
		jStart := 0
		if kind.Symmetric() {
			jStart = i + 1
		}
		for j := jStart; j < n; j++ {
			if i == j {
				continue
			}
			ok, err := a.decide(kind, model.EventID(i), model.EventID(j))
			if err != nil {
				return nil, err
			}
			if ok {
				r.Set(model.EventID(i), model.EventID(j))
				if kind.Symmetric() {
					r.Set(model.EventID(j), model.EventID(i))
				}
			}
		}
	}
	return r, nil
}

// MHBRelation computes the full must-have-happened-before matrix like
// Relation(ctx, RelMHB), but exploits two proven structural facts to skip
// queries: program order (with fork/join) is always contained in MHB, and
// MHB is transitive, so pairs implied by the closure of already-confirmed
// pairs need no search. Verdicts are identical to Relation(ctx, RelMHB);
// only the number of searches differs (measured by the ablation benchmark).
func (a *Analyzer) MHBRelation(ctx context.Context) (*model.Relation, error) {
	var r *model.Relation
	err := a.withCtx(ctx, func() error {
		var err error
		r, err = a.mhbRelation()
		return err
	})
	return r, err
}

func (a *Analyzer) mhbRelation() (*model.Relation, error) {
	n := len(a.x.Events)
	r := model.ProgramOrder(a.x)
	r.Name = "MHB"
	// Confirm/deny remaining pairs, closing transitively as results land.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || r.Has(model.EventID(i), model.EventID(j)) {
				continue
			}
			ok, err := a.decide(RelMHB, model.EventID(i), model.EventID(j))
			if err != nil {
				return nil, err
			}
			if ok {
				r.Set(model.EventID(i), model.EventID(j))
				r.TransitiveClose()
			}
		}
	}
	return r, nil
}

// AllRelations computes all six relations with independent per-pair
// searches. Prefer Matrix for the same result with shared exploration work.
func (a *Analyzer) AllRelations(ctx context.Context) (map[RelKind]*model.Relation, error) {
	var out map[RelKind]*model.Relation
	err := a.withCtx(ctx, func() error {
		out = make(map[RelKind]*model.Relation, 6)
		for _, kind := range AllRelKinds {
			r, err := a.relation(kind)
			if err != nil {
				return err
			}
			out[kind] = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
