package experiments

import (
	"fmt"
	"testing"

	"eventorder/internal/core"
	"eventorder/internal/model"
	"eventorder/internal/reduction"
)

// TestPrecheckLeavesTimedQueriesToSearch guards what the experiments
// measure. The per-pair engine answers some queries from program order,
// fork/join and data dependences alone, without searching. The queries
// E2–E4 and E7 time exercise the hardness of choosing which V or Post
// satisfies which P or Wait, so the pre-check must decide none of them:
// each must still expand search nodes.
func TestPrecheckLeavesTimedQueriesToSearch(t *testing.T) {
	requireSearched := func(name string, x *model.Execution, opts core.Options, query string, ea, eb model.EventID) {
		t.Helper()
		a, err := core.New(x, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if query == "mhb" {
			_, err = a.MHB(ea, eb)
		} else {
			_, err = a.CHB(ea, eb)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Stats().Nodes == 0 {
			t.Errorf("%s: %s query answered without search", name, query)
		}
	}

	// E2–E4: the reduction instances, in both synchronization styles and
	// both feasibility notions, for a MHB b (Theorems 1, 3) and b CHB a
	// (Theorems 2, 4).
	cfg := Config{Seed: 7}
	rng := cfg.rng()
	queries := 0
	for trial := 0; trial < 40; trial++ {
		f := randomSmallFormula(rng, 1+rng.Intn(2), 1+rng.Intn(3))
		for _, style := range []reduction.Style{reduction.StyleSemaphore, reduction.StyleEvent} {
			for _, ignore := range []bool{false, true} {
				opts := core.Options{IgnoreData: ignore}
				inst, err := reduction.Build(f, style, opts)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("trial %d %v ignoreData=%v", trial, style, ignore)
				requireSearched(name, inst.X, opts, "mhb", inst.A, inst.B)
				requireSearched(name, inst.X, opts, "chb", inst.B, inst.A)
				queries += 2
			}
		}
	}
	t.Logf("%d reduction queries, all searched", queries)

	// E7: one semaphore-ordered pair plus n independent noise processes.
	for n := 1; n <= 7; n++ {
		b := model.NewBuilder()
		b.Sem("s", 0, model.SemCounting)
		pa := b.Proc("pa")
		pa.Label("a").Nop()
		pa.V("s")
		pb := b.Proc("pb")
		pb.P("s")
		pb.Label("b").Nop()
		for i := 0; i < n; i++ {
			b.Proc(fmt.Sprintf("noise%d", i)).Nop()
		}
		x, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		requireSearched(fmt.Sprintf("E7 noise=%d", n), x, core.Options{}, "mhb",
			x.MustEventByLabel("a").ID, x.MustEventByLabel("b").ID)
	}
}
