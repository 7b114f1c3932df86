package core

import (
	"context"
	"math/rand"
	"testing"

	"eventorder/internal/model"
)

// truthSeed derives the complete, exactly-true fact bracket from an
// unseeded matrix run: canOrder is CHB, canOverlap is CCW, and the
// complements are their negations.
func truthSeed(x *model.Execution, rels map[RelKind]*model.Relation) *FactSeed {
	n := len(x.Events)
	s := &FactSeed{
		Order:     model.NewRelation("Order", n),
		NoOrder:   model.NewRelation("NoOrder", n),
		Overlap:   model.NewRelation("Overlap", n),
		NoOverlap: model.NewRelation("NoOverlap", n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a, b := model.EventID(i), model.EventID(j)
			if rels[RelCHB].Has(a, b) {
				s.Order.Set(a, b)
			} else {
				s.NoOrder.Set(a, b)
			}
			if rels[RelCCW].Has(a, b) {
				s.Overlap.Set(a, b)
			} else {
				s.NoOverlap.Set(a, b)
			}
		}
	}
	return s
}

// sparsify keeps each pair of r with probability keep, dropping the rest
// (a sound seed stays sound under deletion).
func sparsify(r *model.Relation, keep float64, rng *rand.Rand) *model.Relation {
	out := model.NewRelation(r.Name, r.N())
	for _, p := range r.Pairs() {
		if rng.Float64() < keep {
			out.Set(p[0], p[1])
		}
	}
	return out
}

// TestSeededMatrixIdentity is the core contract of MatrixOpts.Seed: for
// any SOUND seed — here random sub-brackets of the exact truth, from
// empty through complete — the seeded run's matrices are bit-identical to
// the unseeded run's, whether the seed leaves residue to explore or
// decides everything and skips the exploration.
func TestSeededMatrixIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		x := randomExecution(rng)
		a := mustAnalyzer(t, x, Options{})
		want, err := a.Matrix(context.Background(), AllRelKinds, MatrixOpts{})
		if err != nil {
			t.Fatal(err)
		}
		full := truthSeed(x, want.Relations)
		seeds := []*FactSeed{
			full,                // decides everything: exploration skipped
			{Order: full.Order}, // lower bounds only
			{NoOrder: full.NoOrder, NoOverlap: full.NoOverlap}, // upper bounds only
			{
				Order:     sparsify(full.Order, 0.5, rng),
				NoOrder:   sparsify(full.NoOrder, 0.5, rng),
				Overlap:   sparsify(full.Overlap, 0.5, rng),
				NoOverlap: sparsify(full.NoOverlap, 0.5, rng),
			},
			{}, // empty seed: plain run through the seeded code path
		}
		for si, seed := range seeds {
			got, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(),
				AllRelKinds, MatrixOpts{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Complete {
				t.Fatalf("trial %d seed %d: seeded run incomplete", trial, si)
			}
			for _, kind := range AllRelKinds {
				if !got.Relations[kind].Equal(want.Relations[kind]) {
					t.Errorf("trial %d seed %d: %s differs from unseeded:\nseeded:\n%s\nunseeded:\n%s",
						trial, si, kind, got.Relations[kind].FormatMatrix(x), want.Relations[kind].FormatMatrix(x))
				}
			}
		}
	}
}

// TestSeedValidateRejects pins the malformed-seed errors: wrong relation
// size and contradictory facts.
func TestSeedValidateRejects(t *testing.T) {
	wrong := &FactSeed{Order: model.NewRelation("Order", 3)}
	if err := wrong.Validate(5); err == nil {
		t.Error("size-mismatched seed accepted")
	}
	contra := &FactSeed{
		Order:   model.NewRelation("Order", 3),
		NoOrder: model.NewRelation("NoOrder", 3),
	}
	contra.Order.Set(0, 1)
	contra.NoOrder.Set(0, 1)
	if err := contra.Validate(3); err == nil {
		t.Error("contradictory order facts accepted")
	}
	rng := rand.New(rand.NewSource(7))
	x := randomExecution(rng)
	a := mustAnalyzer(t, x, Options{})
	bad := &FactSeed{Order: model.NewRelation("Order", len(x.Events)+1)}
	if _, err := a.Matrix(context.Background(), AllRelKinds, MatrixOpts{Seed: bad}); err == nil {
		t.Error("Matrix accepted a seed over the wrong event count")
	}
}

// TestSeedVerdictThreeValued checks the Kleene shortcuts: a verdict can
// be decided before both of its facts are.
func TestSeedVerdictThreeValued(t *testing.T) {
	s := &FactSeed{
		Order:     model.NewRelation("Order", 2),
		NoOrder:   model.NewRelation("NoOrder", 2),
		Overlap:   model.NewRelation("Overlap", 2),
		NoOverlap: model.NewRelation("NoOverlap", 2),
	}
	// Only canOrder(0, 1) is known.
	s.Order.Set(0, 1)
	if s.Verdict(RelCOW, 0, 1) != VerdictTrue {
		t.Error("COW(0,1) should be decided true from one direction alone")
	}
	if s.Verdict(RelCHB, 0, 1) != VerdictTrue {
		t.Error("CHB(0,1) should be decided true")
	}
	if s.Verdict(RelMHB, 0, 1).Decided() {
		t.Error("MHB(0,1) should be undecided (overlap fact open)")
	}
	if s.Verdict(RelCCW, 0, 1).Decided() {
		t.Error("CCW(0,1) should be undecided")
	}
	// canOrder(1, 0) true makes MHB(0,1) false regardless of overlap.
	s2 := &FactSeed{Order: model.NewRelation("Order", 2)}
	s2.Order.Set(1, 0)
	if s2.Verdict(RelMHB, 0, 1) != VerdictFalse {
		t.Error("MHB(0,1) should be decided false once canOrder(1,0) is proven")
	}
}

// randomBracket returns a seed over n events whose facts are each proven
// true, proven false or left open at random, on the diagonal too; closed
// leaves none open.
func randomBracket(rng *rand.Rand, n int, closed bool) *FactSeed {
	s := &FactSeed{
		Order:     model.NewRelation("Order", n),
		NoOrder:   model.NewRelation("NoOrder", n),
		Overlap:   model.NewRelation("Overlap", n),
		NoOverlap: model.NewRelation("NoOverlap", n),
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for _, rel := range [][2]*model.Relation{{s.Order, s.NoOrder}, {s.Overlap, s.NoOverlap}} {
				switch v := rng.Intn(3); {
				case v == 0:
					rel[0].Set(model.EventID(a), model.EventID(b))
				case v == 1 || closed:
					rel[1].Set(model.EventID(a), model.EventID(b))
				}
			}
		}
	}
	return s
}

// stagedCopy records s's facts into a SeedBuilder in two stages, each
// fact at a random stage, calling NewlyDecided for kinds after each. It
// returns the builder, a seed of the stage-0 facts alone, and per pair
// (a, c) at index a·n+c the stage NewlyDecided reported it at, or −1.
func stagedCopy(t *testing.T, rng *rand.Rand, s *FactSeed, n int, kinds []RelKind) (*SeedBuilder, *FactSeed, []int) {
	sb := NewSeedBuilder(n)
	first := &FactSeed{
		Order:     model.NewRelation("Order", n),
		NoOrder:   model.NewRelation("NoOrder", n),
		Overlap:   model.NewRelation("Overlap", n),
		NoOverlap: model.NewRelation("NoOverlap", n),
	}
	stage := make([]int, 4*n*n)
	for i := range stage {
		stage[i] = rng.Intn(2)
	}
	stageOf := make([]int, n*n)
	for i := range stageOf {
		stageOf[i] = -1
	}
	for st := 0; st < 2; st++ {
		for k, f := range []struct {
			from, first *model.Relation
			add         func(a, c model.EventID) int
		}{
			{s.Order, first.Order, sb.ProveOrder}, {s.NoOrder, first.NoOrder, sb.RefuteOrder},
			{s.Overlap, first.Overlap, sb.ProveOverlap}, {s.NoOverlap, first.NoOverlap, sb.RefuteOverlap},
		} {
			for _, p := range f.from.Pairs() {
				if stage[(k*n+int(p[0]))*n+int(p[1])] != st {
					continue
				}
				f.add(p[0], p[1])
				if st == 0 {
					f.first.Set(p[0], p[1])
				}
			}
		}
		sb.NewlyDecided(kinds, func(a model.EventID, row []uint64) {
			for c := 0; c < n; c++ {
				if row[c/64]>>uint(c%64)&1 == 0 {
					continue
				}
				if prev := stageOf[int(a)*n+c]; prev >= 0 {
					t.Fatalf("n=%d: NewlyDecided reports (%d,%d) at stages %d and %d", n, a, c, prev, st)
				}
				stageOf[int(a)*n+c] = st
			}
		})
	}
	return sb, first, stageOf
}

// TestFactRowsMatchVerdictFromFacts checks the word-wise Table 1
// evaluator against verdictFromFacts pair by pair, on random three-valued
// fact matrices and on closed two-valued ones, at sizes on both sides of
// word boundaries: every kind's true and false rows, the undecided rows,
// the stage at which a SeedBuilder's NewlyDecided reports each pair
// decided, and decidesAll's answer.
func TestFactRowsMatchVerdictFromFacts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 63, 64, 65, 130} {
		for _, closed := range []bool{false, true} {
			s := randomBracket(rng, n, closed)
			fr := s.rows(n)
			if closed {
				fr = factRows{n: n, closed: true, order: fr.order, orderT: fr.orderT, overlap: fr.overlap}
			}
			words := (n + 63) / 64
			tw, fw := make([]uint64, words), make([]uint64, words)
			rels, undecided := fr.relations(AllRelKinds, true)
			kinds := AllRelKinds[:1+rng.Intn(len(AllRelKinds))]
			sb, first, stageOf := stagedCopy(t, rng, s, n, kinds)
			for _, r := range [][2]*model.Relation{{sb.Seed().Order, s.Order}, {sb.Seed().NoOrder, s.NoOrder}, {sb.Seed().Overlap, s.Overlap}, {sb.Seed().NoOverlap, s.NoOverlap}} {
				if !r[0].Equal(r[1]) {
					t.Fatalf("n=%d: the SeedBuilder's seed lost facts of %s", n, r[1].Name)
				}
			}
			everyDecided := true
			for a := 0; a < n; a++ {
				allDecided := make([]bool, n)
				for b := range allDecided {
					allDecided[b] = a != b
				}
				for _, kind := range AllRelKinds {
					fr.verdicts(kind, a, tw, fw)
					for b := 0; b < words*64; b++ {
						isT := tw[b/64]>>uint(b%64)&1 != 0
						isF := fw[b/64]>>uint(b%64)&1 != 0
						if b == a || b >= n {
							if isT || isF {
								t.Fatalf("n=%d closed=%t %s row %d: bit %d set outside the pairs", n, closed, kind, a, b)
							}
							continue
						}
						ea, eb := model.EventID(a), model.EventID(b)
						want := verdictFromFacts(kind, s.orderFact(ea, eb), s.orderFact(eb, ea), s.overlapFact(ea, eb))
						got := VerdictUnknown
						switch {
						case isT && isF:
							t.Fatalf("n=%d closed=%t %s(%d,%d) both true and false", n, closed, kind, a, b)
						case isT:
							got = VerdictTrue
						case isF:
							got = VerdictFalse
						}
						if got != want {
							t.Fatalf("n=%d closed=%t %s(%d,%d) = %s, verdictFromFacts says %s", n, closed, kind, a, b, got, want)
						}
						if rels[kind].Has(ea, eb) != got.Holds() || undecided[kind].Has(ea, eb) != !got.Decided() {
							t.Fatalf("n=%d closed=%t %s(%d,%d): relations disagree with %s", n, closed, kind, a, b, got)
						}
						for _, k := range kinds {
							if k == kind && !want.Decided() {
								allDecided[b] = false
							}
						}
					}
				}
				for b, want := range allDecided {
					everyDecided = everyDecided && (want || b == a)
					if closed {
						continue
					}
					wantStage := -1
					if want {
						wantStage = 1
						ea, eb := model.EventID(a), model.EventID(b)
						if decidesKinds(first, kinds, ea, eb) {
							wantStage = 0
						}
					}
					if got := stageOf[a*n+b]; got != wantStage {
						t.Fatalf("n=%d kinds %v: NewlyDecided reports (%d,%d) at stage %d, want %d", n, kinds, a, b, got, wantStage)
					}
				}
			}
			if got := fr.decidesAll(kinds); got != everyDecided {
				t.Fatalf("n=%d closed=%t kinds %v: decidesAll = %t, want %t", n, closed, kinds, got, everyDecided)
			}
		}
	}
}

// decidesKinds reports whether s decides every verdict kinds asks for on
// the pair (a, b).
func decidesKinds(s *FactSeed, kinds []RelKind, a, b model.EventID) bool {
	for _, kind := range kinds {
		if !s.Verdict(kind, a, b).Decided() {
			return false
		}
	}
	return true
}
