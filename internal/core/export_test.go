package core

import "eventorder/internal/model"

// Hooks for the external tests in must_test.go, which live in package
// core_test because they draw executions from internal/gen, an importer of
// this package, and for core's own tests that run the batch pass on both
// memo layouts.

// relQuery builds the pair query of kind's search primitive.
func (a *Analyzer) relQuery(kind RelKind, ea, eb model.EventID) (*pairQuery, error) {
	accept, _, err := relAccept(kind)
	if err != nil {
		return nil, err
	}
	return a.newPairQuery(ea, eb, accept)
}

// PairExcluded reports whether the structural pre-check answers the query
// (kind, ea, eb) without searching.
func (a *Analyzer) PairExcluded(kind RelKind, ea, eb model.EventID) (bool, error) {
	q, err := a.relQuery(kind, ea, eb)
	if err != nil {
		return false, err
	}
	return a.openOutcome(q) == 0, nil
}

// SearchExists runs the bare monitored search for kind's primitive, with
// no pre-check: whether some interleaving is accepted.
func (a *Analyzer) SearchExists(kind RelKind, ea, eb model.EventID) (bool, error) {
	q, err := a.relQuery(kind, ea, eb)
	if err != nil {
		return false, err
	}
	return a.searchExists(q)
}

// SearchWitness runs the bare witness search for kind's primitive, with no
// pre-check, and reports whether it found an accepted interleaving.
func (a *Analyzer) SearchWitness(kind RelKind, ea, eb model.EventID) (bool, error) {
	q, err := a.relQuery(kind, ea, eb)
	if err != nil {
		return false, err
	}
	_, found, err := a.searchWitness(q)
	return found, err
}

// SupplyEdges derives the pre-check's supply edges and returns how many
// there are.
func (a *Analyzer) SupplyEdges() int {
	_, preds := a.deriveSupply()
	return len(preds)
}

// DropPrecheck discards the predecessor lists and the closure, so the
// next pair query derives them again as on a fresh analyzer.
func (a *Analyzer) DropPrecheck() {
	a.predSpan, a.predList, a.reach = nil, nil, nil
}

// ReferenceExcluded returns the outcomes of the distinct events ea and eb
// that the constraint graph rules out, by the rules of rulesOut with each
// u →+ v answered by a plain backward search over preds instead of the
// closure: the closure's independent reference.
func (a *Analyzer) ReferenceExcluded(ea, eb model.EventID) Outcome {
	if a.predSpan == nil {
		a.linkPreds()
	}
	aBegin, aEnd := a.evBeginAct[ea], a.evEndAct[ea]
	bBegin, bEnd := a.evBeginAct[eb], a.evEndAct[eb]
	var out Outcome
	if a.searchPrecedes(bBegin, aEnd) {
		out |= OutcomeAB
	}
	if a.searchPrecedes(aBegin, bEnd) {
		out |= OutcomeBA
	}
	if aBegin == aEnd && bBegin == bEnd || a.searchPrecedes(aEnd, bBegin) || a.searchPrecedes(bEnd, aBegin) {
		out |= OutcomeOverlap
	}
	return out
}

// searchPrecedes reports u →+ v by a depth-first search backward from v
// over preds.
func (a *Analyzer) searchPrecedes(u, v int32) bool {
	seen := make([]bool, len(a.acts))
	stack := []int32{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range a.preds(x) {
			if p == u {
				return true
			}
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

// layouts names the batch pass's two memo layouts by the cell limit that
// selects them. Every testdata and random execution fits cellLimit, so the
// hashed pass runs on them only with the limit lowered to 0.
var layouts = []struct {
	name     string
	maxCells int
}{{"cells", cellLimit}, {"hashed", 0}}

// withCellLimit sets the largest cell count a's Matrix passes run over
// cells and returns a.
func (a *Analyzer) withCellLimit(maxCells int) *Analyzer {
	a.maxCells = maxCells
	return a
}

// rangeMemo calls fn for every entry of the completion memo, in whichever
// layout holds it, until fn returns false. The key slice is reused between
// calls.
func (a *Analyzer) rangeMemo(fn func(key []uint64, completable bool) bool) {
	if a.cells != nil {
		a.cells.rangeStates(a, fn)
		return
	}
	a.memoComplete.Range(fn)
}
