package core

import "eventorder/internal/model"

// Hooks for the external tests in must_test.go, which live in package
// core_test because they draw executions from internal/gen, an importer of
// this package.

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
	return a.pairExcluded(q), nil
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
