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
	rng := rand.New(rand.NewSource(1404))
	for i := 0; i < 12; i++ {
		x, err := gen.RandomProgramExecution(rng, gen.RandomProgramOptions{
			Procs: 2 + rng.Intn(2), StmtsPerProc: 3, Sems: 1, Events: 1, Vars: 2, SemInit: 1, Branches: true,
		})
		add(fmt.Sprintf("random%d", i), x, err)
	}
	return cases
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

func label(x *model.Execution, e model.EventID) string {
	if l := x.Events[e].Label; l != "" {
		return l
	}
	return fmt.Sprintf("e%d", e)
}

// BenchmarkPairPrecheck times the pre-check alone, per query, over every
// (relation, ordered pair) query of the pair benchmark's two traces.
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
}
