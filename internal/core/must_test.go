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

// precheckCase is one execution the pre-check tests sweep.
type precheckCase struct {
	name string
	x    *model.Execution
}

// precheckCases returns every testdata trace, the barrier and fork/join
// generators the pair benchmark draws from, and seeded random programs.
func precheckCases(t *testing.T) []precheckCase {
	t.Helper()
	var cases []precheckCase
	entries, err := os.ReadDir(filepath.Join("..", "..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".evo" {
			continue
		}
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		res, err := interp.RunAvoidingDeadlock(prog, 64, 1)
		if err != nil {
			t.Fatalf("%s: run: %v", e.Name(), err)
		}
		cases = append(cases, precheckCase{e.Name(), res.X})
	}
	add := func(name string, x *model.Execution, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, precheckCase{name, x})
	}
	// The five-worker shapes are the pair benchmark's traces; their decided
	// queries are the slowest to re-search, so -short stops at four.
	largest := 5
	if testing.Short() {
		largest = 4
	}
	for n := 4; n <= largest; n++ {
		x, err := gen.Barrier(n)
		add(fmt.Sprintf("barrier%d", n), x, err)
	}
	for n := 3; n <= largest; n++ {
		x, err := gen.ForkJoinTree(n)
		add(fmt.Sprintf("forkjoin%d", n), x, err)
	}
	// Shapes where semaphore counting fires differently from the barrier:
	// one consumer fed by two producers, binary semaphores, and an initial
	// value high enough that no P needs a V (need ≤ 0).
	x, err := gen.ProducerConsumer(2, 1, 2)
	add("prodcons2x1x2", x, err)
	x, err = binaryHandoff()
	add("binaryhandoff", x, err)
	x, err = gen.SingleSem(2, 1, 2, 2)
	add("singlesem-init2", x, err)
	// Wait edges: a chain of stages each posted by its predecessor alone,
	// and random programs with two event variables.
	x, err = gen.Pipeline(6)
	add("pipeline6", x, err)
	rng := rand.New(rand.NewSource(1404))
	for i := 0; i < 12; i++ {
		x, err := gen.RandomProgramExecution(rng, gen.RandomProgramOptions{
			Procs: 2 + rng.Intn(2), StmtsPerProc: 3, Sems: 1, Events: 1, Vars: 2, SemInit: 1, Branches: true,
		})
		add(fmt.Sprintf("random%d", i), x, err)
	}
	rng = rand.New(rand.NewSource(1405))
	for i := 0; i < 8; i++ {
		x, err := gen.RandomProgramExecution(rng, gen.RandomProgramOptions{
			Procs: 2 + rng.Intn(2), StmtsPerProc: 8, Events: 2, Vars: 1,
		})
		add(fmt.Sprintf("events%d", i), x, err)
	}
	return cases
}

// binaryHandoff builds a hand-off over binary semaphores: s (initially 0)
// passes control from sender to receiver, and m (initially 1) guards one
// critical section in each.
func binaryHandoff() (*model.Execution, error) {
	b := model.NewBuilder()
	b.Sem("s", 0, model.SemBinary)
	b.Sem("m", 1, model.SemBinary)
	sender := b.Proc("sender")
	sender.Label("a").Nop()
	sender.V("s")
	sender.P("m")
	sender.Label("c").Nop()
	sender.V("m")
	receiver := b.Proc("receiver")
	receiver.P("s")
	receiver.Label("b").Nop()
	receiver.P("m")
	receiver.Label("d").Nop()
	receiver.V("m")
	return b.Build()
}

// primitiveOf maps each relation to the relation whose search primitive it
// shares: MOW and CCW both ask for an overlapping interleaving, MCW and
// COW for a non-overlapping one. Tests key bare-search results by it so
// each distinct search runs once.
func primitiveOf(kind core.RelKind) core.RelKind {
	switch kind {
	case core.RelMOW:
		return core.RelCCW
	case core.RelMCW:
		return core.RelCOW
	}
	return kind
}

// decidedQuery is one query the pre-check answered without searching.
type decidedQuery struct {
	kind   core.RelKind
	ea, eb model.EventID
}

// precheckDecided returns every (relation, ordered pair) query of x that
// the pre-check answers on analyzer a, and the number of queries tried.
func precheckDecided(t *testing.T, a *core.Analyzer, x *model.Execution) ([]decidedQuery, int) {
	t.Helper()
	var out []decidedQuery
	total := 0
	n := x.NumEvents()
	for _, kind := range core.AllRelKinds {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				total++
				ea, eb := model.EventID(i), model.EventID(j)
				excluded, err := a.PairExcluded(kind, ea, eb)
				if err != nil {
					t.Fatal(err)
				}
				if excluded {
					out = append(out, decidedQuery{kind, ea, eb})
				}
			}
		}
	}
	return out, total
}

// TestPrecheckAgreesWithSearch is the pre-check's soundness gate: on every
// execution, in both feasibility notions, for all six relations and every
// ordered pair, a query the pre-check answers is one the bare search also
// finds no accepted interleaving for.
func TestPrecheckAgreesWithSearch(t *testing.T) {
	for _, c := range precheckCases(t) {
		for _, ignore := range []bool{false, true} {
			a, err := core.New(c.x, core.Options{IgnoreData: ignore})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			decided, total := precheckDecided(t, a, c.x)
			searched := map[decidedQuery]bool{}
			for _, d := range decided {
				key := decidedQuery{primitiveOf(d.kind), d.ea, d.eb}
				if searched[key] {
					continue
				}
				searched[key] = true
				found, err := a.SearchExists(d.kind, d.ea, d.eb)
				if err != nil {
					t.Fatal(err)
				}
				if found {
					t.Errorf("%s ignore=%v: pre-check excludes %s(%s, %s) but the search finds an accepted interleaving",
						c.name, ignore, d.kind, label(c.x, d.ea), label(c.x, d.eb))
				}
			}
			t.Logf("%s ignore=%v: pre-check decides %d/%d queries", c.name, ignore, len(decided), total)
		}
	}
}

// TestExcludedMatchesPrecheck checks the closure that matrix seeds and the
// pair pre-check read against an independent reference, a plain backward
// search over the same graph: on every execution, in both feasibility
// notions, Excluded(a, b) must equal the reference's outcomes, and the
// pre-check must refute CHB(a, b) exactly when a T b is ruled out, CHB(b,
// a) exactly when b T a is, and CCW(a, b) exactly when overlap is.
func TestExcludedMatchesPrecheck(t *testing.T) {
	for _, c := range precheckCases(t) {
		for _, ignore := range []bool{false, true} {
			a, err := core.New(c.x, core.Options{IgnoreData: ignore})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			refutes := func(kind core.RelKind, ea, eb model.EventID) bool {
				excluded, err := a.PairExcluded(kind, ea, eb)
				if err != nil {
					t.Fatal(err)
				}
				return excluded
			}
			n := c.x.NumEvents()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					ea, eb := model.EventID(i), model.EventID(j)
					want := a.ReferenceExcluded(ea, eb)
					if got := a.Excluded(ea, eb); got != want {
						t.Errorf("%s ignore=%v: Excluded(%s, %s) = %03b, the backward search says %03b",
							c.name, ignore, label(c.x, ea), label(c.x, eb), got, want)
					}
					var pre core.Outcome
					if refutes(core.RelCHB, ea, eb) {
						pre |= core.OutcomeAB
					}
					if refutes(core.RelCHB, eb, ea) {
						pre |= core.OutcomeBA
					}
					if refutes(core.RelCCW, ea, eb) {
						pre |= core.OutcomeOverlap
					}
					if pre != want {
						t.Errorf("%s ignore=%v: the pre-check on (%s, %s) refutes %03b, the backward search says %03b",
							c.name, ignore, label(c.x, ea), label(c.x, eb), pre, want)
					}
				}
			}
		}
	}
}

// uncertifiedCases are the pre-check cases whose counts leave a choice, so
// the completeness certificate must not hold on them: which V a P takes
// (barriers, locks, the producer/consumer, the binary hand-off, the
// semaphore groups) or which Post a Wait takes (figure1.evo). Every other
// case is certified.
var uncertifiedCases = map[string]bool{
	"barrier.evo": true, "barrier6.evo": true, "dining2.evo": true, "figure1.evo": true,
	"singlesem.evo": true, "symring.evo": true, "barrier4": true, "barrier5": true,
	"prodcons2x1x2": true, "binaryhandoff": true, "singlesem-init2": true,
}

// TestCertifiedExcludedIsExact checks the completeness certificate on every
// pre-check case, in both feasibility notions: it holds exactly on the
// cases uncertifiedCases does not list, and where it holds Excluded leaves
// open exactly the outcomes some feasible interleaving has — a T b where
// the exact matrix has CHB(a, b), overlap where it has CCW(a, b).
func TestCertifiedExcludedIsExact(t *testing.T) {
	for _, c := range precheckCases(t) {
		for _, ignore := range []bool{false, true} {
			a, err := core.New(c.x, core.Options{IgnoreData: ignore})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if a.Certified() == uncertifiedCases[c.name] {
				t.Errorf("%s ignore=%v: certified = %v", c.name, ignore, a.Certified())
			}
			if !a.Certified() {
				continue
			}
			m, err := a.Matrix(context.Background(), []core.RelKind{core.RelCHB, core.RelCCW}, core.MatrixOpts{})
			if err != nil {
				t.Fatal(err)
			}
			n := c.x.NumEvents()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					ea, eb := model.EventID(i), model.EventID(j)
					var want core.Outcome
					if !m.Relations[core.RelCHB].Has(ea, eb) {
						want |= core.OutcomeAB
					}
					if !m.Relations[core.RelCHB].Has(eb, ea) {
						want |= core.OutcomeBA
					}
					if !m.Relations[core.RelCCW].Has(ea, eb) {
						want |= core.OutcomeOverlap
					}
					if got := a.Excluded(ea, eb); got != want {
						t.Errorf("%s ignore=%v: certified, but Excluded(%s, %s) = %03b and the exact matrix rules out %03b",
							c.name, ignore, label(c.x, ea), label(c.x, eb), got, want)
					}
				}
			}
		}
	}
}

// TestPrecheckWitness pins what a pre-check-decided WitnessSchedule
// returns — the verdict with no schedule, exactly what the search returns
// when it finds nothing — and that it expands no search node. The bare
// witness search must agree that no accepted interleaving exists.
func TestPrecheckWitness(t *testing.T) {
	for _, c := range precheckCases(t) {
		a, err := core.New(c.x, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		decided, _ := precheckDecided(t, a, c.x)
		if strings.HasPrefix(c.name, "forkjoin") && len(decided) == 0 {
			t.Errorf("%s: pre-check decided no query, yet fork/join orders many pairs", c.name)
		}
		searched := map[decidedQuery]bool{}
		for _, d := range decided {
			a.ResetStats()
			w, err := a.WitnessSchedule(context.Background(), d.kind, d.ea, d.eb)
			if err != nil {
				t.Fatal(err)
			}
			if w.Holds != d.kind.MustHave() || w.Order != nil || w.Steps != nil {
				t.Errorf("%s %s(%s, %s): witness %+v, want Holds=%v and no schedule",
					c.name, d.kind, label(c.x, d.ea), label(c.x, d.eb), w, d.kind.MustHave())
			}
			if nodes := a.Stats().Nodes; nodes != 0 {
				t.Errorf("%s %s(%s, %s): pre-check-decided witness expanded %d nodes",
					c.name, d.kind, label(c.x, d.ea), label(c.x, d.eb), nodes)
			}
			key := decidedQuery{primitiveOf(d.kind), d.ea, d.eb}
			if searched[key] {
				continue
			}
			searched[key] = true
			found, err := a.SearchWitness(d.kind, d.ea, d.eb)
			if err != nil {
				t.Fatal(err)
			}
			if found {
				t.Errorf("%s %s(%s, %s): bare witness search found an accepted interleaving",
					c.name, d.kind, label(c.x, d.ea), label(c.x, d.eb))
			}
		}
	}
}

// TestSupplyEdges pins the V→P edges semaphore counting derives. At a
// barrier the coordinator's last P(arrive) needs every worker's V(arrive)
// and each worker's P(release) needs the coordinator's first V(release):
// 2n edges, which answer every cross-barrier MHB(before_i, after_j) with
// no search node. On a semaphore initialised to 1, a process's second P
// follows another process's only V, while its first P may take the
// initial token. A Wait on a variable that starts clear runs after some
// Post of it, so when every candidate Post — all but those after the Wait
// in its own process — lies in one other process, that process's first
// Post precedes the Wait; a Clear does not weaken the argument.
func TestSupplyEdges(t *testing.T) {
	for n := 1; n <= 6; n++ {
		x, err := gen.Barrier(n)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.New(x, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := a.SupplyEdges(); got != 2*n {
			t.Errorf("barrier%d: %d supply edges, want %d", n, got, 2*n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				before := x.MustEventByLabel(fmt.Sprintf("before%d", i)).ID
				after := x.MustEventByLabel(fmt.Sprintf("after%d", j)).ID
				a.ResetStats()
				mhb, err := a.MHB(before, after)
				if err != nil {
					t.Fatal(err)
				}
				if !mhb || a.Stats().Nodes != 0 {
					t.Errorf("barrier%d: MHB(before%d, after%d) = %v with %d nodes, want true with none",
						n, i, j, mhb, a.Stats().Nodes)
				}
			}
		}
	}

	b := model.NewBuilder()
	b.Sem("s", 1, model.SemCounting)
	taker := b.Proc("taker")
	taker.P("s")
	taker.Label("x").Nop()
	taker.P("s")
	taker.Label("y").Nop()
	giver := b.Proc("giver")
	giver.Label("g").Nop()
	giver.V("s")
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.New(x, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.SupplyEdges(); got != 1 {
		t.Errorf("second P: %d supply edges, want 1", got)
	}
	g, ex, ey := x.MustEventByLabel("g").ID, x.MustEventByLabel("x").ID, x.MustEventByLabel("y").ID
	if mhb, err := a.MHB(g, ey); err != nil || !mhb || a.Stats().Nodes != 0 {
		t.Errorf("MHB(g, y) = %v, %v with %d nodes, want true with none", mhb, err, a.Stats().Nodes)
	}
	if mhb, err := a.MHB(g, ex); err != nil || mhb {
		t.Errorf("MHB(g, x) = %v, %v, want false: the first P may take the initial token", mhb, err)
	}
	// Wait edges. Each row's poster runs p first and its waiter runs w
	// after the Wait, so an edge alone answers MHB(p, w) with no search
	// node.
	for _, c := range []struct {
		name  string
		build func(b *model.Builder) (*model.Execution, error)
		edges int
	}{
		{"single poster", func(b *model.Builder) (*model.Execution, error) {
			b.EventVar("e", false)
			b.Proc("poster").Label("p").Nop().Post("e").Post("e")
			b.Proc("waiter").Wait("e").Label("w").Nop()
			return b.Build()
		}, 1},
		{"posters in two processes", func(b *model.Builder) (*model.Execution, error) {
			b.EventVar("e", false)
			b.Proc("poster").Label("p").Nop().Post("e")
			b.Proc("other").Post("e")
			b.Proc("waiter").Wait("e").Label("w").Nop()
			return b.Build()
		}, 0},
		{"starts posted", func(b *model.Builder) (*model.Execution, error) {
			b.EventVar("e", true)
			b.Proc("poster").Label("p").Nop().Post("e")
			b.Proc("waiter").Wait("e").Label("w").Nop()
			return b.Build()
		}, 0},
		{"earlier post in the waiter", func(b *model.Builder) (*model.Execution, error) {
			b.EventVar("e", false)
			b.Proc("poster").Label("p").Nop().Post("e")
			b.Proc("waiter").Post("e").Wait("e").Label("w").Nop()
			return b.Build()
		}, 0},
		{"clear between post and wait", func(b *model.Builder) (*model.Execution, error) {
			b.EventVar("e", false)
			b.Proc("poster").Label("p").Nop().Post("e").Clear("e").Post("e")
			b.Proc("waiter").Wait("e").Label("w").Nop()
			// p, Post, Clear, Post, then the Wait and w.
			return b.BuildWithOrder([]model.OpID{0, 1, 2, 3, 4, 5})
		}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			x, err := c.build(model.NewBuilder())
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.New(x, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := a.SupplyEdges(); got != c.edges {
				t.Errorf("%d supply edges, want %d", got, c.edges)
			}
			p, w := x.MustEventByLabel("p").ID, x.MustEventByLabel("w").ID
			mhb, err := a.MHB(p, w)
			if err != nil {
				t.Fatal(err)
			}
			if mhb != (c.edges > 0) {
				t.Errorf("MHB(p, w) = %v, want %v", mhb, c.edges > 0)
			}
			if mhb && a.Stats().Nodes != 0 {
				t.Errorf("MHB(p, w) searched %d nodes, want none", a.Stats().Nodes)
			}
		})
	}
}

func label(x *model.Execution, e model.EventID) string {
	if l := x.Events[e].Label; l != "" {
		return l
	}
	return fmt.Sprintf("e%d", e)
}

// BenchmarkPairPrecheck times the pre-check alone, per query, over every
// (relation, ordered pair) query of the pair benchmark's two traces, and
// the first pair query of an analyzer, which also allocates the scratch
// and derives the supply edges.
func BenchmarkPairPrecheck(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() (*model.Execution, error)
	}{
		{"barrier5", func() (*model.Execution, error) { return gen.Barrier(5) }},
		{"forkjoin5", func() (*model.Execution, error) { return gen.ForkJoinTree(5) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			x, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			a, err := core.New(x, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			n := x.NumEvents()
			queries := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, kind := range core.AllRelKinds {
					for ea := 0; ea < n; ea++ {
						for eb := 0; eb < n; eb++ {
							if ea == eb {
								continue
							}
							if _, err := a.PairExcluded(kind, model.EventID(ea), model.EventID(eb)); err != nil {
								b.Fatal(err)
							}
							queries++
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries), "ns/query")
		})
	}
	// The derivation is linear in the synchronization actions apart from
	// a sort of each semaphore's suppliers, so ns/sync-action should stay
	// flat from 100 to 1000 workers. core.New runs once, outside the
	// timer; DropPrecheck returns the analyzer to its fresh state.
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("first/barrier%d", n), func(b *testing.B) {
			x, err := gen.Barrier(n)
			if err != nil {
				b.Fatal(err)
			}
			a, err := core.New(x, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			syncActs := 0
			for i := range x.Events {
				if x.Events[i].IsSync() {
					syncActs++
				}
			}
			before, after := x.MustEventByLabel("before0").ID, x.MustEventByLabel("after1").ID
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a.DropPrecheck()
				b.StartTimer()
				if _, err := a.PairExcluded(core.RelMHB, before, after); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*syncActs), "ns/sync-action")
		})
	}
}
