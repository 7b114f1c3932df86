// Benchmarks regenerating the paper's evaluation artifacts, one family per
// experiment in DESIGN.md's index (E1–E10), plus ablations of the engine's
// design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are machine-dependent; the shapes that reproduce the
// paper are (a) exponential growth of the exact queries in instance size
// (E2/E4/E7/E9 families) against flat polynomial baselines (E5/E6
// families), and (b) the must-have/could-have asymmetry: refutation-style
// MHB queries cost far more than witness-style CHB queries on satisfiable
// instances.
package eventorder

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"eventorder/internal/core"
	"eventorder/internal/gen"
	"eventorder/internal/hmw"
	"eventorder/internal/lang"
	"eventorder/internal/model"
	"eventorder/internal/race"
	"eventorder/internal/reduction"
	"eventorder/internal/sat"
	"eventorder/internal/semsched"
	"eventorder/internal/staticorder"
	"eventorder/internal/taskgraph"
	"eventorder/internal/vclock"
)

// --- shared fixtures ----------------------------------------------------

// benchFormula deterministically draws a formula with clauses of width 1–3.
func benchFormula(seed int64, n, m int) *sat.Formula {
	rng := rand.New(rand.NewSource(seed))
	f := sat.NewFormula(n)
	for j := 0; j < m; j++ {
		w := 1 + rng.Intn(3)
		if w > n {
			w = n
		}
		clause := make([]int, 0, w)
		for k := 0; k < w; k++ {
			lit := 1 + rng.Intn(n)
			if rng.Intn(2) == 0 {
				lit = -lit
			}
			clause = append(clause, lit)
		}
		f.AddClause(clause...)
	}
	return f
}

func mustInstance(b *testing.B, f *sat.Formula, style reduction.Style) *reduction.Instance {
	b.Helper()
	inst, err := reduction.Build(f, style, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func mustAnalyzer(b *testing.B, x *model.Execution, opts core.Options) *core.Analyzer {
	b.Helper()
	a, err := core.New(x, opts)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// --- E1: Table 1 — the relation engine ----------------------------------

// BenchmarkE1_RelationEngine measures one decision of each relation kind on
// a fixed mixed workload (cold memo every iteration: the honest per-query
// cost).
func BenchmarkE1_RelationEngine(b *testing.B) {
	x, err := gen.ForkJoinTree(3)
	if err != nil {
		b.Fatal(err)
	}
	w0 := x.MustEventByLabel("work0").ID
	w1 := x.MustEventByLabel("work1").ID
	for _, kind := range core.AllRelKinds {
		b.Run(kind.String(), func(b *testing.B) {
			a := mustAnalyzer(b, x, core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.DropMemo()
				if _, err := a.Decide(context.Background(), kind, w0, w1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE1_BruteForceEnumeration is the definitional baseline the engine
// is validated against: enumerate every feasible interleaving.
func BenchmarkE1_BruteForceEnumeration(b *testing.B) {
	x, err := gen.ForkJoinTree(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BruteRelations(x, core.Options{}, 5_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2/E3: Theorems 1–2 (semaphores) ------------------------------------

// BenchmarkE2_Thm1_MHB_Sem: the co-NP-hard direction — refute any
// interleaving where b begins before a ends. Nodes grow exponentially with
// the formula.
func BenchmarkE2_Thm1_MHB_Sem(b *testing.B) {
	for _, size := range []struct{ n, m int }{{1, 1}, {1, 2}, {2, 2}, {2, 3}} {
		inst := mustInstance(b, benchFormula(11, size.n, size.m), reduction.StyleSemaphore)
		b.Run(fmt.Sprintf("vars=%d/clauses=%d", size.n, size.m), func(b *testing.B) {
			a := mustAnalyzer(b, inst.X, core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.DropMemo()
				if _, err := a.MHB(inst.A, inst.B); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3_Thm2_CHB_Sem: the NP-hard direction — find one witness
// interleaving; cheap when the formula is satisfiable.
func BenchmarkE3_Thm2_CHB_Sem(b *testing.B) {
	for _, size := range []struct{ n, m int }{{1, 1}, {1, 2}, {2, 2}, {2, 3}} {
		inst := mustInstance(b, benchFormula(11, size.n, size.m), reduction.StyleSemaphore)
		b.Run(fmt.Sprintf("vars=%d/clauses=%d", size.n, size.m), func(b *testing.B) {
			a := mustAnalyzer(b, inst.X, core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.DropMemo()
				if _, err := a.CHB(inst.B, inst.A); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2_SATOracle prices the oracle side of the equivalence: CDCL on
// the same formulas (dwarfed by the event-ordering side, as Theorem 1
// predicts — the reduction direction is formula → ordering).
func BenchmarkE2_SATOracle(b *testing.B) {
	f := benchFormula(11, 2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sat.Solve(f)
	}
}

// --- E4: Theorems 3–4 (event style) --------------------------------------

func BenchmarkE4_Thm34_Event(b *testing.B) {
	for _, size := range []struct{ n, m int }{{1, 1}, {1, 2}, {2, 2}} {
		inst := mustInstance(b, benchFormula(13, size.n, size.m), reduction.StyleEvent)
		b.Run(fmt.Sprintf("MHB/vars=%d/clauses=%d", size.n, size.m), func(b *testing.B) {
			a := mustAnalyzer(b, inst.X, core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.DropMemo()
				if _, err := a.MHB(inst.A, inst.B); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("CHB/vars=%d/clauses=%d", size.n, size.m), func(b *testing.B) {
			a := mustAnalyzer(b, inst.X, core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.DropMemo()
				if _, err := a.CHB(inst.B, inst.A); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: Figure 1 — task graph vs exact ----------------------------------

func figure1Execution(b *testing.B) *model.Execution {
	b.Helper()
	bld := model.NewBuilder()
	main := bld.Proc("main")
	t1 := main.Fork("t1")
	t2 := main.Fork("t2")
	t3 := main.Fork("t3")
	t1.Label("lp").Post("e")
	t1.Write("X")
	t2.Read("X")
	t2.Label("rp").Post("e")
	t3.Label("w").Wait("e")
	x, err := bld.BuildDeferred()
	if err != nil {
		b.Fatal(err)
	}
	// Observed order: forks, then t1 entirely, then t2, then t3 — the
	// paper's Figure 1b observation.
	x.Order = []model.OpID{0, 1, 2, 3, 4, 5, 6, 7}
	if err := model.Replay(x, x.Order, nil); err != nil {
		b.Fatal(err)
	}
	return x
}

func BenchmarkE5_Figure1_TaskGraph(b *testing.B) {
	x := figure1Execution(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taskgraph.Build(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_Figure1_ExactMHB(b *testing.B) {
	x := figure1Execution(b)
	lp := x.MustEventByLabel("lp").ID
	rp := x.MustEventByLabel("rp").ID
	a := mustAnalyzer(b, x, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.DropMemo()
		if _, err := a.MHB(lp, rp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: polynomial baselines --------------------------------------------

func BenchmarkE6_HMW(b *testing.B) {
	x, err := gen.Mutex(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hmw.Analyze(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_VectorClocks(b *testing.B) {
	x, err := gen.Mutex(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vclock.Compute(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_ExactMHBFullRelation(b *testing.B) {
	x, err := gen.Mutex(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mustAnalyzer(b, x, core.Options{})
		if _, err := a.Relation(context.Background(), core.RelMHB); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: scaling — the hardness made visible ------------------------------

// noiseExecution builds one enforced ordering plus n unrelated processes.
func noiseExecution(b *testing.B, n int) *model.Execution {
	b.Helper()
	bld := model.NewBuilder()
	bld.Sem("s", 0, model.SemCounting)
	pa := bld.Proc("pa")
	pa.Label("a").Nop()
	pa.V("s")
	pb := bld.Proc("pb")
	pb.P("s")
	pb.Label("b").Nop()
	for i := 0; i < n; i++ {
		bld.Proc(fmt.Sprintf("noise%d", i)).Nop()
	}
	x, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return x
}

func BenchmarkE7_Scaling_ExactMHB(b *testing.B) {
	for _, n := range []int{1, 3, 5, 7} {
		x := noiseExecution(b, n)
		a := mustAnalyzer(b, x, core.Options{})
		ea := x.MustEventByLabel("a").ID
		eb := x.MustEventByLabel("b").ID
		b.Run(fmt.Sprintf("noise=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.DropMemo()
				if _, err := a.MHB(ea, eb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE7_Scaling_VectorClocks(b *testing.B) {
	for _, n := range []int{1, 3, 5, 7} {
		x := noiseExecution(b, n)
		b.Run(fmt.Sprintf("noise=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vclock.Compute(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: race detection ----------------------------------------------------

func BenchmarkE8_Races_Exact(b *testing.B) {
	for _, pairs := range []int{2, 4} {
		x, _, err := gen.SeededRaces(pairs, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := race.Detect(x, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE8_Races_VectorClockOnly(b *testing.B) {
	x, _, err := gen.SeededRaces(4, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vcRes, err := vclock.Compute(x)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range race.Candidates(x) {
			_ = vcRes.HB.Has(c.A, c.B) || vcRes.HB.Has(c.B, c.A)
		}
	}
}

// --- E9: single semaphore — generic vs symmetry-reduced -------------------

// singleSemInfeasible: n identical P;V processes (init 2) plus one process
// wanting three tokens; refuting completion explores the whole space.
func singleSemInfeasible(b *testing.B, n int) *model.Execution {
	b.Helper()
	bld := model.NewBuilder()
	bld.Sem("s", 2, model.SemCounting)
	for i := 0; i < n; i++ {
		p := bld.Proc(fmt.Sprintf("w%d", i))
		p.P("s")
		p.V("s")
	}
	g := bld.Proc("greedy")
	g.P("s")
	g.P("s")
	g.P("s")
	x, err := bld.BuildDeferred()
	if err != nil {
		b.Fatal(err)
	}
	return x
}

func BenchmarkE9_SingleSem_Generic(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		x := singleSemInfeasible(b, n)
		b.Run(fmt.Sprintf("procs=%d", n+1), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := core.NewUnscheduled(x, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ok, err := a.CanComplete()
				if err != nil {
					b.Fatal(err)
				}
				if ok {
					b.Fatal("infeasible instance completed")
				}
			}
		})
	}
}

func BenchmarkE9_SingleSem_Symmetry(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		x := singleSemInfeasible(b, n)
		in, err := semsched.FromExecution(x)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("procs=%d", n+1), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if in.CanComplete() {
					b.Fatal("infeasible instance completed")
				}
			}
		})
	}
}

func BenchmarkE9_SMMCC(b *testing.B) {
	x := singleSemInfeasible(b, 8)
	in, err := semsched.FromExecution(x)
	if err != nil {
		b.Fatal(err)
	}
	tasks, k := in.ToSMMCC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := semsched.SMMCCDecide(tasks, k)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			b.Fatal("infeasible instance completed")
		}
	}
}

// --- E10: feasibility with vs without D ------------------------------------

func BenchmarkE10_IgnoreD(b *testing.B) {
	x := figure1Execution(b)
	lp := x.MustEventByLabel("lp").ID
	rp := x.MustEventByLabel("rp").ID
	b.Run("withD", func(b *testing.B) {
		a := mustAnalyzer(b, x, core.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.DropMemo()
			if _, err := a.MHB(lp, rp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ignoreD", func(b *testing.B) {
		a := mustAnalyzer(b, x, core.Options{IgnoreData: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.DropMemo()
			if _, err := a.MHB(lp, rp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E11: Monte-Carlo sampling ----------------------------------------------

func BenchmarkE11_Sampling(b *testing.B) {
	x, err := gen.ForkJoinTree(3)
	if err != nil {
		b.Fatal(err)
	}
	for _, samples := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			a := mustAnalyzer(b, x, core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.SampleRelations(samples, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E12: static guaranteed orderings -----------------------------------------

func BenchmarkE12_StaticAnalysis(b *testing.B) {
	prog, err := lang.Parse(`
event ready
var cfgv
proc main {
    setup: cfgv := 1
    fork worker
    fork helper
    join worker
    join helper
    teardown: skip
}
proc worker { w1: cfgv := cfgv + 1  post(ready) }
proc helper { wait(ready)  h1: skip }
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := staticorder.Analyze(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Witness extraction --------------------------------------------------------

func BenchmarkWitnessExtraction(b *testing.B) {
	x, err := gen.ForkJoinTree(3)
	if err != nil {
		b.Fatal(err)
	}
	w0 := x.MustEventByLabel("work0").ID
	w1 := x.MustEventByLabel("work1").ID
	a := mustAnalyzer(b, x, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.DropMemo()
		w, err := a.WitnessSchedule(context.Background(), core.RelCCW, w0, w1)
		if err != nil {
			b.Fatal(err)
		}
		if !w.Holds {
			b.Fatal("workers should be concurrent")
		}
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblation_Memoization: the engine with and without state
// memoization; the gap is the design choice DESIGN.md calls out. The
// workload is deliberately tiny: without memoization the search walks the
// interleaving TREE instead of the state DAG, and even noise=3 already
// takes minutes.
func BenchmarkAblation_Memoization(b *testing.B) {
	x := noiseExecution(b, 2)
	ea := x.MustEventByLabel("a").ID
	eb := x.MustEventByLabel("b").ID
	b.Run("memo=on", func(b *testing.B) {
		a := mustAnalyzer(b, x, core.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.DropMemo()
			if _, err := a.MHB(ea, eb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memo=off", func(b *testing.B) {
		a := mustAnalyzer(b, x, core.Options{DisableMemo: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.MHB(ea, eb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_WarmMemo: the completion memo is the one table that
// persists across queries (the per-query interval-monitor memos cannot —
// they depend on the event pair). Measure a warm CanComplete, which is a
// single memo hit, against its cold cost.
func BenchmarkAblation_WarmMemo(b *testing.B) {
	x := noiseExecution(b, 5)
	a := mustAnalyzer(b, x, core.Options{})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.DropMemo()
			if _, err := a.CanComplete(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := a.CanComplete(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.CanComplete(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// relationParallelBaseline reproduces the deleted core.RelationParallel
// path for the ablations that measure it: ordered pairs sharded over
// worker goroutines, each deciding its claims on a private analyzer —
// every pair a from-scratch search, with no memo sharing across workers.
func relationParallelBaseline(x *model.Execution, opts core.Options, kind core.RelKind, workers int) (*model.Relation, error) {
	n := len(x.Events)
	type pair struct{ a, b model.EventID }
	pairs := make([]pair, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				pairs = append(pairs, pair{model.EventID(i), model.EventID(j)})
			}
		}
	}
	if workers < 1 {
		workers = 1
	}
	rel := model.NewRelation(kind.String(), n)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		next     atomic.Int64
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := core.New(x, opts)
			if err != nil {
				fail(err)
				return
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				holds, err := a.Decide(context.Background(), kind, pairs[i].a, pairs[i].b)
				if err != nil {
					fail(err)
					return
				}
				if holds {
					mu.Lock()
					rel.Set(pairs[i].a, pairs[i].b)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return rel, firstErr
}

// BenchmarkAblation_ParallelRelation: fan the per-pair decisions over
// goroutines; the trade is private analyzers (no shared completion memo)
// against multicore throughput.
func BenchmarkAblation_ParallelRelation(b *testing.B) {
	x, err := gen.Barrier(3)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := relationParallelBaseline(x, core.Options{}, core.RelMHB, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MHBFullRelation compares the naive all-pairs MHB
// computation against the transitivity-pruned fast path.
func BenchmarkAblation_MHBFullRelation(b *testing.B) {
	x, err := gen.Barrier(3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := mustAnalyzer(b, x, core.Options{})
			if _, err := a.Relation(context.Background(), core.RelMHB); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := mustAnalyzer(b, x, core.Options{})
			if _, err := a.MHBRelation(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_SATSolver compares the CDCL solver against brute force
// on a formula near the hard ratio.
func BenchmarkAblation_SATSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	f := sat.Random3CNF(rng, 14, 60)
	b.Run("cdcl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sat.Solve(f)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sat.SolveBrute(f)
		}
	})
}

// --- E13: batch matrix engine amortization -------------------------------

// matrixBenchWorkload returns the instance the matrix benchmarks share: a
// semaphore barrier, whose matrix forces the engine through a state space
// that per-pair search re-explores from scratch for every pair.
func matrixBenchWorkload(b *testing.B) *model.Execution {
	b.Helper()
	x, err := gen.Barrier(5)
	if err != nil {
		b.Fatal(err)
	}
	return x
}

// BenchmarkMatrix_PerPairSequential is the baseline: one Decide per ordered
// pair, memo dropped between iterations so each sample pays the full cost.
func BenchmarkMatrix_PerPairSequential(b *testing.B) {
	x := matrixBenchWorkload(b)
	a := mustAnalyzer(b, x, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.DropMemo()
		if _, err := a.Relation(context.Background(), core.RelCCW); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatrix_RelationParallel is the old fan-out: per-pair decisions
// sharded over goroutines with no shared exploration.
func BenchmarkMatrix_RelationParallel(b *testing.B) {
	x := matrixBenchWorkload(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := relationParallelBaseline(x, core.Options{}, core.RelCCW, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatrix_Batch is the shared-memo batch engine: one exploration of
// the feasibility space answers every pair (and all six kinds) at once.
func BenchmarkMatrix_Batch(b *testing.B) {
	x := matrixBenchWorkload(b)
	for i := 0; i < b.N; i++ {
		a := mustAnalyzer(b, x, core.Options{})
		if _, err := a.Matrix(context.Background(), []core.RelKind{core.RelCCW}, core.MatrixOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatrix_BatchAllKinds computes all six relation matrices from the
// single shared exploration — the marginal cost over one kind is assembly
// only.
func BenchmarkMatrix_BatchAllKinds(b *testing.B) {
	x := matrixBenchWorkload(b)
	for i := 0; i < b.N; i++ {
		a := mustAnalyzer(b, x, core.Options{})
		if _, err := a.Matrix(context.Background(), nil, core.MatrixOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
