package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventorder/internal/core"
	"eventorder/internal/gen"
	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
)

// certifiedIdioms are the testdata programs whose executions core
// certifies.
var certifiedIdioms = []string{"burst.evo", "crossdep.evo", "handshake.evo", "nearsym.evo", "pipeline.evo", "postwaitclear.evo"}

// certifiedPairCases returns the executions TestCertifiedPairQueries
// sweeps: the fork/join trees and pipelines and the certified idioms,
// which must be certified, and 200 seeded random programs, which need not
// be.
func certifiedPairCases(t *testing.T) []precheckCase {
	t.Helper()
	var cases []precheckCase
	add := func(name string, x *model.Execution, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, precheckCase{name, x})
	}
	for n := 2; n <= 6; n++ {
		x, err := gen.ForkJoinTree(n)
		add(fmt.Sprintf("forkjoin%d", n), x, err)
	}
	for n := 4; n <= 8; n++ {
		x, err := gen.Pipeline(n)
		add(fmt.Sprintf("pipeline%d", n), x, err)
	}
	for _, name := range certifiedIdioms {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := interp.RunAvoidingDeadlock(prog, 64, 1)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		cases = append(cases, precheckCase{name, res.X})
	}
	rng := rand.New(rand.NewSource(2745))
	opts := gen.RandomProgramOptions{Procs: 3, StmtsPerProc: 4, Sems: 2, Events: 2, Vars: 2, SemInit: 1, Branches: true}
	for i := 0; i < 200; i++ {
		x, err := gen.RandomProgramExecution(rng, opts)
		add(fmt.Sprintf("random%03d", i), x, err)
	}
	return cases
}

// TestCertifiedPairQueries is the certified pair path's gate. On every
// certified execution, in both feasibility notions, for all six relations
// and every ordered pair: Decide equals the unseeded batch Matrix, which
// searches, and expands no node; and WitnessSchedule returns the same
// verdict, expands no node, and its order replays under the exploration
// constraints and exhibits its claim. Decide and WitnessSchedule run on
// analyzers of their own, fresh but for the earlier queries of the sweep.
func TestCertifiedPairQueries(t *testing.T) {
	certified, random := 0, 0
	for _, c := range certifiedPairCases(t) {
		isRandom := strings.HasPrefix(c.name, "random")
		for _, ignore := range []bool{false, true} {
			opts := core.Options{IgnoreData: ignore}
			ref, err := core.New(c.x, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !ref.Certified() {
				if !isRandom {
					t.Errorf("%s ignore=%v: not certified", c.name, ignore)
				}
				continue
			}
			certified++
			if isRandom {
				random++
			}
			m, err := ref.Matrix(context.Background(), nil, core.MatrixOpts{})
			if err != nil || !m.Complete {
				t.Fatalf("%s ignore=%v: Matrix: complete=%v, %v", c.name, ignore, m != nil && m.Complete, err)
			}
			if ref.Stats().Nodes == 0 {
				t.Fatalf("%s ignore=%v: the reference Matrix expanded no state", c.name, ignore)
			}
			deciding, err := core.New(c.x, opts)
			if err != nil {
				t.Fatal(err)
			}
			witnessing, err := core.New(c.x, opts)
			if err != nil {
				t.Fatal(err)
			}
			constraints := model.OpConstraintsForExploration(c.x, ignore)
			n := c.x.NumEvents()
			for _, kind := range core.AllRelKinds {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if i == j {
							continue
						}
						ea, eb := model.EventID(i), model.EventID(j)
						tag := fmt.Sprintf("%s ignore=%v: %s(%s, %s)", c.name, ignore, kind, label(c.x, ea), label(c.x, eb))
						want := m.Relations[kind].Has(ea, eb)
						got, err := deciding.Decide(context.Background(), kind, ea, eb)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						if got != want {
							t.Errorf("%s: Decide = %v, the batch matrix says %v", tag, got, want)
						}
						w, err := witnessing.WitnessSchedule(context.Background(), kind, ea, eb)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						if err := checkWitness(c.x, constraints, kind, ea, eb, want, w); err != nil {
							t.Errorf("%s: %v", tag, err)
						}
					}
				}
			}
			if nodes := deciding.Stats().Nodes + witnessing.Stats().Nodes; nodes != 0 {
				t.Errorf("%s ignore=%v: certified pair queries expanded %d nodes", c.name, ignore, nodes)
			}
		}
	}
	t.Logf("%d certified executions, %d of them random", certified, random)
	if random < 300 {
		t.Errorf("only %d of the 400 random executions are certified", random)
	}
}

// checkWitness checks a witness against the verdict want: its verdict
// must equal want, an order must come exactly with a could-relation that
// holds or a must-relation that fails, and the order must replay under
// constraints with begin and end steps placed as the claim needs.
func checkWitness(x *model.Execution, constraints [][2]model.OpID, kind core.RelKind, ea, eb model.EventID, want bool, w core.Witness) error {
	if w.Holds != want {
		return fmt.Errorf("witness verdict %v, want %v", w.Holds, want)
	}
	if wantOrder := want != kind.MustHave(); (w.Order != nil) != wantOrder {
		return fmt.Errorf("order present %v, want %v", w.Order != nil, wantOrder)
	}
	if w.Order == nil {
		return nil
	}
	if err := model.Replay(x, w.Order, constraints); err != nil {
		return fmt.Errorf("the witness does not replay: %w", err)
	}
	span := func(e model.EventID) (begin, end int) {
		begin, end = -1, -1
		for i, s := range w.Steps {
			if s.Event == e {
				if begin < 0 {
					begin = i
				}
				end = i
			}
		}
		return begin, end
	}
	aBegin, aEnd := span(ea)
	bBegin, bEnd := span(eb)
	if aBegin < 0 || bBegin < 0 {
		return fmt.Errorf("the witness's steps miss an event")
	}
	aFirst, bFirst := aEnd < bBegin, bEnd < aBegin
	overlap := !aFirst && !bFirst
	var exhibits bool
	switch kind {
	case core.RelCHB:
		exhibits = aFirst
	case core.RelMHB:
		exhibits = !aFirst
	case core.RelCCW, core.RelMOW:
		exhibits = overlap
	case core.RelCOW, core.RelMCW:
		exhibits = !overlap
	}
	if !exhibits {
		return fmt.Errorf("the witness does not exhibit its claim")
	}
	return nil
}

// TestUnscheduledPairQueries checks the closure on executions with no
// observed order, which it no longer needs: on a hand-off built deferred,
// an unscheduled analyzer is certified and answers every pair query like
// an analyzer of the same execution once scheduled; on a cross wait, whose
// supply edges form a cycle, no complete interleaving exists, so the
// analyzer is not certified and no could-relation holds.
func TestUnscheduledPairQueries(t *testing.T) {
	b := model.NewBuilder()
	b.Sem("s", 0, model.SemCounting)
	b.Proc("p1").Label("a").Nop().V("s").Label("c").Nop()
	b.Proc("p2").Label("d").Nop().P("s").Label("b").Nop()
	x, err := b.BuildDeferred()
	if err != nil {
		t.Fatal(err)
	}
	unscheduled, err := core.NewUnscheduled(x, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !unscheduled.Certified() {
		t.Fatal("the unscheduled hand-off is not certified")
	}
	if err := core.Schedule(x, core.Options{}); err != nil {
		t.Fatal(err)
	}
	scheduled, err := core.New(x, core.Options{IgnoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	n := x.NumEvents()
	for _, kind := range core.AllRelKinds {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				ea, eb := model.EventID(i), model.EventID(j)
				got, err := unscheduled.Decide(context.Background(), kind, ea, eb)
				if err != nil {
					t.Fatal(err)
				}
				want, err := scheduled.Decide(context.Background(), kind, ea, eb)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s(%s, %s): unscheduled %v, scheduled %v", kind, label(x, ea), label(x, eb), got, want)
				}
			}
		}
	}

	b = model.NewBuilder()
	b.Sem("s", 0, model.SemCounting)
	b.Sem("t", 0, model.SemCounting)
	b.Proc("p1").P("s").V("t")
	b.Proc("p2").P("t").V("s")
	x, err = b.BuildDeferred()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewUnscheduled(x, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Certified() {
		t.Fatal("a cross wait with no complete interleaving is certified")
	}
	for i := 0; i < x.NumEvents(); i++ {
		for j := 0; j < x.NumEvents(); j++ {
			if i == j {
				continue
			}
			for _, kind := range []core.RelKind{core.RelCHB, core.RelCCW, core.RelCOW} {
				if holds, err := a.Decide(context.Background(), kind, model.EventID(i), model.EventID(j)); err != nil || holds {
					t.Errorf("%s(e%d, e%d) = %v, %v on an execution with no complete interleaving", kind, i, j, holds, err)
				}
			}
		}
	}
}
