package core

import (
	"context"
	"fmt"
	"testing"

	"eventorder/internal/model"
	"eventorder/internal/symm"
)

// symmAnalyzer builds an analyzer and requires that the symmetry detector
// proved a nontrivial group for it (the tests below are vacuous otherwise).
func symmAnalyzer(t *testing.T, x *model.Execution) *Analyzer {
	t.Helper()
	a := mustAnalyzer(t, x, Options{})
	if !a.symmetry() {
		t.Fatal("expected a nontrivial symmetry group")
	}
	return a
}

// TestSymmDetectTestdata pins the detector's verdict on the committed
// example traces: the deliberately symmetric workloads get their full
// classes, the near-symmetric control (identical op-kind signatures,
// asymmetric data dependences) degrades to trivial.
func TestSymmDetectTestdata(t *testing.T) {
	cases := []struct {
		name    string
		classes [][]int32 // expected classes, or nil for trivial
	}{
		// coordinator is proc 0; the six workers form one class.
		{"barrier6.evo", [][]int32{{1, 2, 3, 4, 5, 6}}},
		// all four ring stations are interchangeable (private variables).
		{"symring.evo", [][]int32{{0, 1, 2, 3}}},
		// both workers of the original barrier are interchangeable: the
		// cross data dependences (before_i → after_j) map onto each other.
		{"barrier.evo", [][]int32{{1, 2}}},
		// equal signatures, asymmetric data constraints → trivial.
		{"nearsym.evo", nil},
		// equal signatures, but the conflict orientation flips under the
		// swap (a:=y+0 / b:=x+0 with an observed order) → trivial.
		{"crossdep.evo", nil},
		// structurally distinct processes → trivial.
		{"pipeline.evo", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := loadTrace(t, c.name)
			g := symm.Detect(x, false)
			if c.classes == nil {
				if !g.Trivial() {
					t.Fatalf("want trivial group, got classes %v", g.Classes)
				}
				if len(g.Generators()) != 0 {
					t.Fatal("trivial group emitted generators")
				}
				return
			}
			if len(g.Classes) != len(c.classes) {
				t.Fatalf("classes = %v, want %v", g.Classes, c.classes)
			}
			for i := range c.classes {
				if len(g.Classes[i]) != len(c.classes[i]) {
					t.Fatalf("classes = %v, want %v", g.Classes, c.classes)
				}
				for j := range c.classes[i] {
					if g.Classes[i][j] != c.classes[i][j] {
						t.Fatalf("classes = %v, want %v", g.Classes, c.classes)
					}
				}
			}
			for p, ci := range g.ClassOf {
				inClass := ci >= 0
				found := false
				for _, class := range c.classes {
					for _, q := range class {
						if q == int32(p) {
							found = true
						}
					}
				}
				if inClass != found {
					t.Errorf("ClassOf[%d] = %d inconsistent with classes %v", p, ci, c.classes)
				}
			}
		})
	}
}

// TestSymmDetectIgnoreData: nearsym's asymmetry lives entirely in its data
// dependences, so the Section 5.3 feasibility notion (data constraints
// dropped) makes its processes genuinely interchangeable — and the
// detector must follow the notion it is asked about.
func TestSymmDetectIgnoreData(t *testing.T) {
	x := loadTrace(t, "nearsym.evo")
	if g := symm.Detect(x, false); !g.Trivial() {
		t.Fatalf("data-respecting group nontrivial: %v", g.Classes)
	}
	g := symm.Detect(x, true)
	if len(g.Classes) != 1 || len(g.Classes[0]) != 2 {
		t.Fatalf("ignore-data group = %v, want one class of two", g.Classes)
	}
}

// TestMatrixSymmIdentity is the tentpole's acceptance bit: on every
// committed trace, the symmetry-reduced batch matrices are bit-identical
// to the unreduced engine's.
func TestMatrixSymmIdentity(t *testing.T) {
	for _, name := range testdataTraces(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			x := loadTrace(t, name)
			ref, err := mustAnalyzer(t, x, Options{DisableSymm: true}).Matrix(
				context.Background(), nil, MatrixOpts{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil, MatrixOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range AllRelKinds {
				if !got.Relations[kind].Equal(ref.Relations[kind]) {
					t.Errorf("%s differs under symmetry:\nsymm:\n%s\nno-symm:\n%s",
						kind, got.Relations[kind].FormatMatrix(x), ref.Relations[kind].FormatMatrix(x))
				}
			}
		})
	}
}

// TestSymmReducesStates is the perf acceptance bit: on the barrier-style
// symmetric workloads the reduced batch expands ≥ 1.5× fewer states.
func TestSymmReducesStates(t *testing.T) {
	for _, name := range []string{"barrier6.evo", "symring.evo"} {
		t.Run(name, func(t *testing.T) {
			x := loadTrace(t, name)
			run := func(opts Options) int64 {
				a := mustAnalyzer(t, x, opts)
				if _, err := a.Matrix(context.Background(), nil, MatrixOpts{}); err != nil {
					t.Fatal(err)
				}
				return a.Stats().Nodes
			}
			with := run(Options{})
			without := run(Options{DisableSymm: true})
			if with <= 0 || without <= 0 {
				t.Fatalf("degenerate node counts: %d vs %d", with, without)
			}
			ratio := float64(without) / float64(with)
			t.Logf("%s: %d states without symm, %d with (%.2fx)", name, without, with, ratio)
			if ratio < 1.5 {
				t.Errorf("state reduction %.2fx < 1.5x", ratio)
			}
		})
	}
}

// TestSymmStatsCounters: the reduction's observability contract — class
// count in Stats, collapse counter advancing on a symmetric batch run.
func TestSymmStatsCounters(t *testing.T) {
	x := loadTrace(t, "barrier6.evo")
	a := symmAnalyzer(t, x)
	if got := a.Stats().SymmClasses; got != 1 {
		t.Errorf("SymmClasses = %d, want 1", got)
	}
	if _, err := a.Matrix(context.Background(), nil, MatrixOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().SymmCollapses; got <= 0 {
		t.Errorf("SymmCollapses = %d after a symmetric batch run, want > 0", got)
	}
	off := mustAnalyzer(t, x, Options{DisableSymm: true})
	if got := off.Stats().SymmClasses; got != 0 {
		t.Errorf("DisableSymm SymmClasses = %d, want 0", got)
	}
}

// TestSymmDetectedLazily pins when the symmetry detector runs: not in New
// or Stats, not for a query the closure answers, and at the first search.
// On barrier6.evo, MHB of the coordinator's first two P's follows from
// program order, while CHB of two workers' V's searches. nearsym.evo under
// IgnoreData is symmetric and certified, so none of its pair or witness
// queries runs the detector.
func TestSymmDetectedLazily(t *testing.T) {
	x := loadTrace(t, "barrier6.evo")
	a := mustAnalyzer(t, x, Options{})
	// nth returns the event of proc's n-th op in program order.
	nth := func(proc string, n int) model.EventID {
		for _, p := range x.Procs {
			if p.Name == proc {
				return x.Ops[p.Ops[n]].Event
			}
		}
		t.Fatalf("no process %s", proc)
		return 0
	}
	if a.Stats().SymmClasses != 0 || a.symmDetected {
		t.Fatal("New or Stats ran the detector")
	}
	c0, c1 := nth("coordinator", 0), nth("coordinator", 1)
	if mhb, err := a.MHB(c0, c1); err != nil || !mhb || a.symmDetected {
		t.Fatalf("MHB(%d, %d) = %v, %v; detector ran: %v", c0, c1, mhb, err, a.symmDetected)
	}
	if _, err := a.CHB(nth("w0", 0), nth("w1", 0)); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Nodes == 0 || a.Stats().SymmClasses != 1 {
		t.Fatalf("a search expanded %d nodes with %d symmetry classes, want some and 1", a.Stats().Nodes, a.Stats().SymmClasses)
	}

	x = loadTrace(t, "nearsym.evo")
	a = mustAnalyzer(t, x, Options{IgnoreData: true})
	if !a.Certified() {
		t.Fatal("nearsym.evo is not certified")
	}
	for _, kind := range AllRelKinds {
		for i := range x.Events {
			for j := range x.Events {
				if i == j {
					continue
				}
				ea, eb := model.EventID(i), model.EventID(j)
				if _, err := a.Decide(context.Background(), kind, ea, eb); err != nil {
					t.Fatal(err)
				}
				if _, err := a.WitnessSchedule(context.Background(), kind, ea, eb); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if a.symmDetected {
		t.Error("a certified execution's pair queries ran the detector")
	}
	if !a.symmetry() {
		t.Error("nearsym.evo under IgnoreData lost its symmetry group")
	}
}

// TestSymmCollapsesCount pins what Stats.SymmCollapses counts: completion
// memo probes whose key canonicalized to another orbit representative. A
// Matrix probes each successor of each state once, hits included, so its
// count is recounted here from the states it hands over as the memo; a
// per-pair query counts the probes of its completion search.
func TestSymmCollapsesCount(t *testing.T) {
	x := loadTrace(t, "barrier6.evo")
	a := symmAnalyzer(t, x)
	if _, err := a.Matrix(context.Background(), nil, MatrixOpts{}); err != nil {
		t.Fatal(err)
	}
	var recount int64
	child, canon := make([]uint64, a.keyWords), make([]uint64, a.keyWords)
	a.memoComplete.Range(func(key []uint64, _ bool) bool {
		a.unpackKey(key)
		copy(a.sem, a.semInit)
		for p, ids := range a.procActs {
			for _, id := range ids[:a.pc[p]] {
				switch act := &a.acts[id]; act.opKind {
				case model.OpAcquire:
					a.sem[act.obj]--
				case model.OpRelease:
					a.sem[act.obj]++
				}
			}
		}
		for _, id := range a.appendEnabled(nil) {
			a.patchChildKey(id, key, child)
			if a.canonicalizeKey(child, canon) {
				recount++
			}
		}
		return true
	})
	// 105 of the 189 transitions out of the 54 representatives land off
	// their orbit's representative; only 35 of them reach a new state.
	if got := a.Stats().SymmCollapses; got != 105 || recount != 105 {
		t.Errorf("Matrix SymmCollapses = %d, recounted from its memo %d, want 105", got, recount)
	}

	b := symmAnalyzer(t, x)
	if _, err := b.Decide(context.Background(), RelMHB, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().SymmCollapses; got != 11 {
		t.Errorf("per-pair MHB(e0, e1) SymmCollapses = %d, want 11", got)
	}
}

// TestPerPairSymmIdentity: the canComplete memo integration — per-pair
// verdicts with the canonical-key memo equal the raw-key engine's. The
// deprecated DisablePOR knob is set both ways on the symmetric analyzer:
// it is ignored, so both runs must match the same raw-key reference.
func TestPerPairSymmIdentity(t *testing.T) {
	for _, name := range []string{"barrier6.evo", "symring.evo", "barrier.evo", "nearsym.evo"} {
		for _, noPOR := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s noPOR=%v", name, noPOR), func(t *testing.T) {
				x := loadTrace(t, name)
				ref, err := mustAnalyzer(t, x, Options{DisableSymm: true}).AllRelations(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				got, err := mustAnalyzer(t, x, Options{DisablePOR: noPOR}).AllRelations(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range AllRelKinds {
					if !got[kind].Equal(ref[kind]) {
						t.Errorf("%s differs under symmetry", kind)
					}
				}
			})
		}
	}
}

// TestManyProcsSymmFallsBack builds a 66-process execution — more
// processes than the batch engine's 64-bit fold masks cover, though every
// process is interchangeable — and verifies symmetry disables itself while
// queries still answer correctly.
func TestManyProcsSymmFallsBack(t *testing.T) {
	b := model.NewBuilder()
	b.Sem("s", 1, model.SemCounting)
	for p := 0; p < 66; p++ {
		pb := b.Proc(fmt.Sprintf("p%d", p))
		pb.P("s")
		pb.V("s")
	}
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, x, Options{})
	if a.symmetry() {
		t.Fatal("symmetry stayed enabled on a 66-process execution")
	}
	ok, err := a.CanComplete()
	if err != nil || !ok {
		t.Fatalf("CanComplete = (%v, %v), want (true, nil)", ok, err)
	}
	v, err := a.CHB(0, model.EventID(len(x.Events)-1))
	if err != nil || !v {
		t.Fatalf("CHB(first, last) = (%v, %v), want (true, nil)", v, err)
	}
}

// applyTransposition swaps the pc fields of processes p and q in a packed
// key (the action of the transposition automorphism on states whose event
// bits it fixes).
func applyTransposition(a *Analyzer, key []uint64, p, q int32) {
	pb := a.pcBits
	vp := readBits(key, uint(p)*pb, pb)
	vq := readBits(key, uint(q)*pb, pb)
	writeBits(key, uint(p)*pb, pb, vq)
	writeBits(key, uint(q)*pb, pb, vp)
}

// FuzzCanonicalKey drives random states of a symmetric execution through
// the canonicalizer and checks its contracts: the reported change is
// exact, idempotence (canonical keys are fixed points), orbit stability
// (every emitted generator maps a state to one with the same canonical
// key), and orbit injectivity (states with provably distinct class-value
// multisets or fixed-process counters never share a canonical key —
// approximated here by checking the canonical key preserves the multiset
// and fixed fields).
func FuzzCanonicalKey(f *testing.F) {
	x := loadTrace(f, "barrier6.evo")
	a, err := New(x, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if !a.symmetry() {
		f.Fatal("barrier6 lost its symmetry group")
	}
	g := symm.Detect(x, false)
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		np := len(a.procActs)
		key := make([]uint64, a.keyWords)
		canon := make([]uint64, a.keyWords)
		canon2 := make([]uint64, a.keyWords)
		permed := make([]uint64, a.keyWords)
		// Build an arbitrary (not necessarily reachable) state key from
		// the fuzz bytes: canonicalization is pure key surgery, so its
		// contracts must hold on the whole key space.
		for p := 0; p < np; p++ {
			var b byte
			if len(data) > 0 {
				b = data[p%len(data)]
			}
			pc := int32(b) % int32(len(a.procActs[p])+1)
			writeBits(key, uint(p)*a.pcBits, a.pcBits, uint64(pc))
		}
		if len(data) > np {
			writeBits(key, uint(np)*a.pcBits, uint(min(a.evBits, 8)), uint64(data[np]))
		}

		// The change report is exact: true iff the canonical key differs.
		changed := a.canonicalizeKey(key, canon)
		differs := false
		for i := range canon {
			differs = differs || canon[i] != key[i]
		}
		if changed != differs {
			t.Fatalf("canonicalizeKey reported changed=%v, keys differ=%v", changed, differs)
		}
		// Idempotence.
		if a.canonicalizeKey(canon, canon2) {
			t.Fatal("canonical key canonicalized again reported a change")
		}
		for i := range canon {
			if canon[i] != canon2[i] {
				t.Fatalf("canonicalize not idempotent: %x vs %x", canon, canon2)
			}
		}
		// Orbit stability under every emitted generator.
		for _, gen := range g.Generators() {
			copy(permed, key)
			applyTransposition(a, permed, gen[0], gen[1])
			a.canonicalizeKey(permed, canon2)
			for i := range canon {
				if canon[i] != canon2[i] {
					t.Fatalf("canonical(k) != canonical(swap_%d_%d(k))", gen[0], gen[1])
				}
			}
		}
		// Orbit injectivity: the canonical key preserves each class's pc
		// multiset (sorted ascending) and every out-of-class field, so
		// two states canonicalizing equal must lie in one orbit.
		for _, class := range a.symmClasses {
			want := make([]int32, 0, len(class))
			for _, p := range class {
				want = append(want, int32(readBits(key, uint(p)*a.pcBits, a.pcBits)))
			}
			for i := 1; i < len(want); i++ {
				for j := i; j > 0 && want[j-1] > want[j]; j-- {
					want[j-1], want[j] = want[j], want[j-1]
				}
			}
			for i, p := range class {
				got := int32(readBits(canon, uint(p)*a.pcBits, a.pcBits))
				if got != want[i] {
					t.Fatalf("class %v canonical values %d != sorted multiset %v", class, got, want)
				}
			}
		}
		for p := 0; p < np; p++ {
			if a.symmClassOf[p] >= 0 {
				continue
			}
			if readBits(canon, uint(p)*a.pcBits, a.pcBits) != readBits(key, uint(p)*a.pcBits, a.pcBits) {
				t.Fatalf("fixed process %d's counter changed", p)
			}
		}
	})
}
