package core

import (
	"fmt"
	"math/bits"

	"eventorder/internal/model"
)

// FactSeed carries externally proven primitive interval facts into
// Analyzer.Matrix. The batch engine reduces every relation verdict to two
// primitive facts per ordered pair — canOrder(a, b) ("some feasible
// complete interleaving runs a wholly before b") and canOverlap(a, b)
// ("some feasible complete interleaving passes a state with both in
// progress") — so a polynomial pre-analysis (internal/plan) can bracket
// the exact search by proving individual facts true (lower bounds) or
// false (upper bounds) ahead of it:
//
//	Order     a,b ⇒ canOrder(a, b) is true   (a witness interleaving exists)
//	NoOrder   a,b ⇒ canOrder(a, b) is false  (no feasible interleaving has it)
//	Overlap   a,b ⇒ canOverlap(a, b) is true
//	NoOverlap a,b ⇒ canOverlap(a, b) is false
//
// Matrix consults the seed three ways: facts the seed proves true join the
// exploration's after the pass, facts it refutes decide a partial
// result's verdicts that the exploration left open, and when the seed
// decides every verdict the requested kinds ask for, the exponential
// exploration is skipped entirely. A SOUND seed
// (every claimed fact actually holds) therefore leaves all verdicts
// bit-identical to an unseeded run; an inconsistent seed (a fact both
// proven and refuted) is rejected by Validate. Soundness itself cannot be
// checked locally — it is the seed producer's obligation, differential-
// tested in internal/oracle.
//
// Nil sub-relations are treated as empty (nothing proven on that side).
type FactSeed struct {
	Order     *model.Relation
	NoOrder   *model.Relation
	Overlap   *model.Relation
	NoOverlap *model.Relation
}

// Validate checks the seed is well-formed over n events: every non-nil
// relation ranges over exactly n events and no primitive fact is claimed
// both true and false.
func (s *FactSeed) Validate(n int) error {
	for _, r := range []struct {
		name string
		rel  *model.Relation
	}{
		{"Order", s.Order}, {"NoOrder", s.NoOrder},
		{"Overlap", s.Overlap}, {"NoOverlap", s.NoOverlap},
	} {
		if r.rel != nil && r.rel.N() != n {
			return fmt.Errorf("core: seed relation %s ranges over %d events, execution has %d", r.name, r.rel.N(), n)
		}
	}
	checkDisjoint := func(name string, lo, hi *model.Relation) error {
		if lo == nil || hi == nil {
			return nil
		}
		for a := 0; a < n; a++ {
			hw := hi.Row(model.EventID(a)).Words()
			for w, x := range lo.Row(model.EventID(a)).Words() {
				if both := x & hw[w]; both != 0 {
					return fmt.Errorf("core: inconsistent seed: %s fact (%d, %d) claimed both true and false", name, a, w*64+bits.TrailingZeros64(both))
				}
			}
		}
		return nil
	}
	if err := checkDisjoint("order", s.Order, s.NoOrder); err != nil {
		return err
	}
	return checkDisjoint("overlap", s.Overlap, s.NoOverlap)
}

func seedHas(r *model.Relation, a, b model.EventID) bool {
	return r != nil && r.Has(a, b)
}

// orderFact reads the seed's knowledge of canOrder(a, b).
func (s *FactSeed) orderFact(a, b model.EventID) Verdict {
	switch {
	case seedHas(s.Order, a, b):
		return VerdictTrue
	case seedHas(s.NoOrder, a, b):
		return VerdictFalse
	}
	return VerdictUnknown
}

// overlapFact reads the seed's knowledge of canOverlap(a, b).
func (s *FactSeed) overlapFact(a, b model.EventID) Verdict {
	switch {
	case seedHas(s.Overlap, a, b):
		return VerdictTrue
	case seedHas(s.NoOverlap, a, b):
		return VerdictFalse
	}
	return VerdictUnknown
}

// verdictFromFacts derives the relation verdict kind(a, b) from the two
// primitive facts via the paper's Table 1 formulas, in Kleene logic so a
// verdict can be decided even when one of its facts is still open —
// COW(a, b) is true as soon as either direction's canOrder is proven.
// The same formulas serve the seed bracket and the partial-result path.
func verdictFromFacts(kind RelKind, oab, oba, vab Verdict) Verdict {
	switch kind {
	case RelCHB:
		return oab
	case RelCCW:
		return vab
	case RelCOW:
		return oab.Or(oba)
	case RelMHB:
		return oba.Not().And(vab.Not())
	case RelMCW:
		return oab.Not().And(oba.Not())
	case RelMOW:
		return vab.Not()
	}
	return VerdictUnknown
}

// Verdict derives the relation verdict kind(a, b) from the seed's fact
// bracket. VerdictUnknown means the bracket leaves the verdict to the
// exact engine.
func (s *FactSeed) Verdict(kind RelKind, a, b model.EventID) Verdict {
	return verdictFromFacts(kind, s.orderFact(a, b), s.orderFact(b, a), s.overlapFact(a, b))
}

// SeedBuilder assembles a FactSeed in stages, such as the planner's
// tiers. Beside the seed it keeps the transposes of its two canOrder
// relations, which the Table 1 evaluator reads, and the pairs an earlier
// NewlyDecided call reported, so that a call after each stage finds in
// one pass over the rows the pairs that stage's facts first decide.
type SeedBuilder struct {
	seed     *FactSeed
	n, words int
	// orderT and noOrderT hold n rows of words each: row c holds the
	// events a with canOrder(a, c) proven and refuted. decided holds, per
	// event a, the events an earlier NewlyDecided call reported, and row
	// is NewlyDecided's scratch.
	orderT, noOrderT, decided, row []uint64
}

// NewSeedBuilder returns an empty builder over n events.
func NewSeedBuilder(n int) *SeedBuilder {
	words := (n + 63) / 64
	planes := make([]uint64, (3*n+1)*words)
	return &SeedBuilder{
		seed: &FactSeed{
			Order:     model.NewRelation("seedOrder", n),
			NoOrder:   model.NewRelation("seedNoOrder", n),
			Overlap:   model.NewRelation("seedOverlap", n),
			NoOverlap: model.NewRelation("seedNoOverlap", n),
		},
		n: n, words: words,
		orderT:   planes[: n*words : n*words],
		noOrderT: planes[n*words : 2*n*words : 2*n*words],
		decided:  planes[2*n*words : 3*n*words : 3*n*words],
		row:      planes[3*n*words:],
	}
}

// Seed returns the seed holding every fact recorded so far.
func (b *SeedBuilder) Seed() *FactSeed { return b.seed }

// ProveOrder records canOrder(a, c) true. It and the other three fact
// recorders return 1 if the fact is new and 0 if a call recorded it
// before.
func (b *SeedBuilder) ProveOrder(a, c model.EventID) int {
	return b.add(b.seed.Order, b.orderT, a, c)
}

// RefuteOrder records canOrder(a, c) false.
func (b *SeedBuilder) RefuteOrder(a, c model.EventID) int {
	return b.add(b.seed.NoOrder, b.noOrderT, a, c)
}

// ProveOverlap records canOverlap(a, c) true.
func (b *SeedBuilder) ProveOverlap(a, c model.EventID) int {
	return b.add(b.seed.Overlap, nil, a, c)
}

// RefuteOverlap records canOverlap(a, c) false.
func (b *SeedBuilder) RefuteOverlap(a, c model.EventID) int {
	return b.add(b.seed.NoOverlap, nil, a, c)
}

// add records fact (a, c) in r and, unless t is nil, (c, a) in the
// transpose t.
func (b *SeedBuilder) add(r *model.Relation, t []uint64, a, c model.EventID) int {
	if r.Has(a, c) {
		return 0
	}
	r.Set(a, c)
	if t != nil {
		t[int(c)*b.words+int(a)/64] |= 1 << uint(a%64)
	}
	return 1
}

// NewlyDecided calls fn once per event a with the events c on which the
// facts recorded so far decide every verdict kinds asks for and on which
// no earlier call reported them decided, as a row of words that fn must
// not keep past the call. Facts only accumulate, so a call after each
// stage reports every decided pair once, at the first stage whose facts,
// with the earlier stages', decide it.
func (b *SeedBuilder) NewlyDecided(kinds []RelKind, fn func(a model.EventID, row []uint64)) {
	row, s := b.row, b.seed
	for a := 0; a < b.n; a++ {
		ea := model.EventID(a)
		order, noOrder := s.Order.Row(ea).Words(), s.NoOrder.Row(ea).Words()
		overlap, noOverlap := s.Overlap.Row(ea).Words(), s.NoOverlap.Row(ea).Words()
		lo, hi := a*b.words, (a+1)*b.words
		orderT, noOrderT, decided := b.orderT[lo:hi], b.noOrderT[lo:hi], b.decided[lo:hi]
		for w := range row {
			d := rowMask(b.n, a, w)
			for _, kind := range kinds {
				yes, no := verdictWord(kind, order[w], orderT[w], overlap[w], noOrder[w], noOrderT[w], noOverlap[w])
				d &= yes | no
			}
			row[w] = d &^ decided[w]
			decided[w] |= d
		}
		fn(ea, row)
	}
}

// rows returns the seed's bracket over n events in row form. The rows of
// the four relations and of the two transposes share one header array,
// and the transposes' words one backing array.
func (s *FactSeed) rows(n int) factRows {
	headers := make([][]uint64, 6*n)
	relRows := func(r *model.Relation, i int) [][]uint64 {
		if r == nil {
			return nil
		}
		rows := headers[i*n : (i+1)*n : (i+1)*n]
		for a := range rows {
			rows[a] = r.Row(model.EventID(a)).Words()
		}
		return rows
	}
	fr := factRows{
		n:         n,
		order:     relRows(s.Order, 0),
		noOrder:   relRows(s.NoOrder, 1),
		overlap:   relRows(s.Overlap, 2),
		noOverlap: relRows(s.NoOverlap, 3),
	}
	if fr.order != nil || fr.noOrder != nil {
		t := carveRows(headers[4*n:], n)
		if fr.order != nil {
			fr.orderT = transposeInto(t[:n:n], fr.order)
		}
		if fr.noOrder != nil {
			fr.noOrderT = transposeInto(t[n:], fr.noOrder)
		}
	}
	return fr
}

// rowScratch returns three empty rows over n events.
func rowScratch(n int) (a, b, c []uint64) {
	words := (n + 63) / 64
	scratch := make([]uint64, 3*words)
	return scratch[:words:words], scratch[words : 2*words : 2*words], scratch[2*words:]
}

// factRows is a three-valued bracket on the two primitive fact matrices,
// held as rows of words: for each event a, the events b with canOrder(a,
// b), canOrder(b, a) and canOverlap(a, b) proven true, and those with each
// proven false. A nil matrix proves nothing. A closed bracket — a finished
// exploration's — proves false every fact it does not prove true, and its
// false matrices are nil.
type factRows struct {
	n                            int
	closed                       bool
	order, orderT, overlap       [][]uint64
	noOrder, noOrderT, noOverlap [][]uint64
}

// verdicts evaluates Table 1 on event a's row a word at a time: it writes
// into t and f the events b ≠ a for which kind(a, b) is proven true and
// proven false. Per pair it is verdictFromFacts under the same Kleene
// logic, with a word of And as &, Or as | and Not as a swap of the two
// sides.
func (fr *factRows) verdicts(kind RelKind, a int, t, f []uint64) {
	for w := range t {
		oT, tT, vT := rowWord(fr.order, a, w), rowWord(fr.orderT, a, w), rowWord(fr.overlap, a, w)
		oF, tF, vF := ^oT, ^tT, ^vT
		if !fr.closed {
			oF, tF, vF = rowWord(fr.noOrder, a, w), rowWord(fr.noOrderT, a, w), rowWord(fr.noOverlap, a, w)
		}
		yes, no := verdictWord(kind, oT, tT, vT, oF, tF, vF)
		m := rowMask(fr.n, a, w)
		t[w], f[w] = yes&m, no&m
	}
}

// verdictWord evaluates Table 1 for kind on one word of a row a: from the
// events b with canOrder(a, b), canOrder(b, a) and canOverlap(a, b) proven
// true (oT, tT, vT) and proven false (oF, tF, vF), the events b with
// kind(a, b) proven true and proven false.
func verdictWord(kind RelKind, oT, tT, vT, oF, tF, vF uint64) (yes, no uint64) {
	switch kind {
	case RelCHB: // canOrder(a, b)
		return oT, oF
	case RelCCW: // canOverlap(a, b)
		return vT, vF
	case RelCOW: // canOrder(a, b) ∨ canOrder(b, a)
		return oT | tT, oF & tF
	case RelMHB: // ¬canOrder(b, a) ∧ ¬canOverlap(a, b)
		return tF & vF, tT | vT
	case RelMCW: // ¬canOrder(a, b) ∧ ¬canOrder(b, a)
		return oF & tF, oT | tT
	case RelMOW: // ¬canOverlap(a, b)
		return vF, vT
	}
	return 0, 0
}

// decided writes into d the events b ≠ a for which every verdict kinds
// asks for is decided, using t and f as scratch.
func (fr *factRows) decided(kinds []RelKind, a int, d, t, f []uint64) {
	for w := range d {
		d[w] = rowMask(fr.n, a, w)
	}
	for _, kind := range kinds {
		fr.verdicts(kind, a, t, f)
		for w := range d {
			d[w] &= t[w] | f[w]
		}
	}
}

// decidesAll reports whether the bracket decides every verdict kinds asks
// for — the condition under which Matrix can skip the exponential
// exploration entirely.
func (fr *factRows) decidesAll(kinds []RelKind) bool {
	d, t, f := rowScratch(fr.n)
	for a := 0; a < fr.n; a++ {
		fr.decided(kinds, a, d, t, f)
		count := 0
		for _, w := range d {
			count += bits.OnesCount64(w)
		}
		if count != fr.n-1 {
			return false
		}
	}
	return true
}

// rowMask returns word w of an n-event row holding every event but a.
func rowMask(n, a, w int) uint64 {
	m := ^uint64(0)
	if rem := n % 64; rem != 0 && w == n/64 {
		m = 1<<uint(rem) - 1
	}
	if w == a/64 {
		m &^= 1 << uint(a%64)
	}
	return m
}

// rowWord returns word w of row a of m, or 0 when m is nil.
func rowWord(m [][]uint64, a, w int) uint64 {
	if m == nil {
		return 0
	}
	return m[a][w]
}

// newFactRows returns count empty fact rows over n events, carved from one
// backing array.
func newFactRows(count, n int) [][]uint64 {
	return carveRows(make([][]uint64, count), n)
}

// carveRows points each of rows at an empty fact row over n events, carved
// from one backing array, and returns rows.
func carveRows(rows [][]uint64, n int) [][]uint64 {
	words := (n + 63) / 64
	backing := make([]uint64, len(rows)*words)
	for a := range rows {
		rows[a] = backing[a*words : (a+1)*words : (a+1)*words]
	}
	return rows
}

// transposeInto sets dst, an empty square fact matrix, to the transpose
// of m and returns it.
func transposeInto(dst, m [][]uint64) [][]uint64 {
	for a, row := range m {
		for w, x := range row {
			for ; x != 0; x &= x - 1 {
				b := w*64 + bits.TrailingZeros64(x)
				dst[b][a/64] |= 1 << uint(a%64)
			}
		}
	}
	return dst
}

// relations evaluates kinds over the bracket: per kind, the relation of
// the pairs proven true and, when open is set, the relation of the pairs
// left undecided.
func (fr *factRows) relations(kinds []RelKind, open bool) (rels, undecided map[RelKind]*model.Relation) {
	t, f, u := rowScratch(fr.n)
	rels = make(map[RelKind]*model.Relation, len(kinds))
	if open {
		undecided = make(map[RelKind]*model.Relation, len(kinds))
	}
	for _, kind := range kinds {
		rel := model.NewRelation(kind.String(), fr.n)
		var und *model.Relation
		if open {
			und = model.NewRelation(kind.String()+"-undecided", fr.n)
			undecided[kind] = und
		}
		for a := 0; a < fr.n; a++ {
			fr.verdicts(kind, a, t, f)
			rel.SetRow(model.EventID(a), t)
			if open {
				for w := range u {
					u[w] = rowMask(fr.n, a, w) &^ (t[w] | f[w])
				}
				und.SetRow(model.EventID(a), u)
			}
		}
		rels[kind] = rel
	}
	return rels, undecided
}
