package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"eventorder/internal/model"
)

// mustAnalyzer builds an analyzer or fails the test.
func mustAnalyzer(t *testing.T, x *model.Execution, opts Options) *Analyzer {
	t.Helper()
	a, err := New(x, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

// decide runs one query or fails the test.
func decide(t *testing.T, a *Analyzer, kind RelKind, la, lb string) bool {
	t.Helper()
	x := a.Execution()
	ea := x.MustEventByLabel(la).ID
	eb := x.MustEventByLabel(lb).ID
	ok, err := a.Decide(context.Background(), kind, ea, eb)
	if err != nil {
		t.Fatalf("%s(%s,%s): %v", kind, la, lb, err)
	}
	return ok
}

// semOrdered builds p1: a;V(s) ∥ p2: P(s);b — a is always ordered before b.
func semOrdered(t *testing.T) *model.Execution {
	t.Helper()
	b := model.NewBuilder()
	b.Sem("s", 0, model.SemCounting)
	p1 := b.Proc("p1")
	p1.Label("a").Nop()
	p1.V("s")
	p2 := b.Proc("p2")
	p2.P("s")
	p2.Label("b").Nop()
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// semChoice builds p1: a;V(s) ∥ p2: V(s) ∥ p3: P(s);b. Which V the P takes
// is a choice, so the completeness certificate does not hold and pair
// queries the closure leaves open run the search.
func semChoice(t *testing.T) *model.Execution {
	t.Helper()
	b := model.NewBuilder()
	b.Sem("s", 0, model.SemCounting)
	p1 := b.Proc("p1")
	p1.Label("a").Nop()
	p1.V("s")
	b.Proc("p2").V("s")
	p3 := b.Proc("p3")
	p3.P("s")
	p3.Label("b").Nop()
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// searchingAnalyzer returns an analyzer over semChoice and fails the test
// if its execution is certified, which would answer every pair query
// without a search.
func searchingAnalyzer(t *testing.T, opts Options) (*model.Execution, *Analyzer) {
	t.Helper()
	x := semChoice(t)
	a := mustAnalyzer(t, x, opts)
	if a.Certified() {
		t.Fatal("semChoice is certified, so its pair queries do not search")
	}
	return x, a
}

func TestSemaphoreEnforcedOrdering(t *testing.T) {
	x := semOrdered(t)
	a := mustAnalyzer(t, x, Options{})
	cases := []struct {
		kind   RelKind
		la, lb string
		want   bool
	}{
		{RelMHB, "a", "b", true},
		{RelMHB, "b", "a", false},
		{RelCHB, "a", "b", true},
		{RelCHB, "b", "a", false},
		{RelCCW, "a", "b", false},
		{RelMCW, "a", "b", false},
		{RelCOW, "a", "b", true},
		{RelMOW, "a", "b", true},
	}
	for _, c := range cases {
		if got := decide(t, a, c.kind, c.la, c.lb); got != c.want {
			t.Errorf("%s(%s,%s) = %v, want %v", c.kind, c.la, c.lb, got, c.want)
		}
	}
	// The V event must also be ordered before the P event (atomic sync ops).
	vEv, pEv := x.Events[1].ID, x.Events[2].ID
	if x.Events[1].Kind != model.OpRelease || x.Events[2].Kind != model.OpAcquire {
		t.Fatalf("unexpected event layout")
	}
	if ok, _ := a.MHB(vEv, pEv); !ok {
		t.Error("V(s) should MHB P(s): the only V enables the only P")
	}
}

func TestIndependentEventsFullyUnordered(t *testing.T) {
	b := model.NewBuilder()
	b.Proc("p1").Label("a").Nop()
	b.Proc("p2").Label("b").Nop()
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, x, Options{})
	for _, c := range []struct {
		kind RelKind
		want bool
	}{
		{RelMHB, false}, {RelCHB, true}, {RelCCW, true},
		{RelMCW, false}, {RelCOW, true}, {RelMOW, false},
	} {
		if got := decide(t, a, c.kind, "a", "b"); got != c.want {
			t.Errorf("%s(a,b) = %v, want %v", c.kind, got, c.want)
		}
	}
	// Symmetric in the other direction for CHB too (either order possible).
	if !decide(t, a, RelCHB, "b", "a") {
		t.Error("CHB(b,a) should hold for independent events")
	}
}

// TestForcedOverlap reproduces the model's must-have-concurrent case: two
// computation events with cross data dependences can only execute
// overlapped.
//
//	p1: a{ write x; read y }   p2: b{ write y; read x }
//
// observed: w(x) w(y) r(y) r(x) → D has a→b (via x) and b→a (via y).
func TestForcedOverlap(t *testing.T) {
	b := model.NewBuilder()
	p1 := b.Proc("p1")
	p1.Label("a").Write("x").Read("y")
	p2 := b.Proc("p2")
	p2.Label("b").Write("y").Read("x")
	x, err := b.BuildDeferred()
	if err != nil {
		t.Fatal(err)
	}
	// ops: 0=w(x) 1=r(y) 2=w(y) 3=r(x)
	x.Order = []model.OpID{0, 2, 1, 3}
	if err := model.Replay(x, x.Order, nil); err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, x, Options{})
	if !decide(t, a, RelMCW, "a", "b") {
		t.Error("MCW(a,b) should hold: cross dependences force overlap")
	}
	if decide(t, a, RelCOW, "a", "b") {
		t.Error("COW(a,b) should not hold")
	}
	if decide(t, a, RelCHB, "a", "b") || decide(t, a, RelCHB, "b", "a") {
		t.Error("no CHB either way under forced overlap")
	}
	// Ignoring the data dependences, the events become independent.
	ai := mustAnalyzer(t, x, Options{IgnoreData: true})
	if decide(t, ai, RelMCW, "a", "b") {
		t.Error("MCW should vanish when data dependences are ignored")
	}
	if !decide(t, ai, RelCHB, "a", "b") {
		t.Error("CHB(a,b) should hold when data dependences are ignored")
	}
}

func TestMutualExclusionOrderedWith(t *testing.T) {
	// Critical sections under a mutex: never concurrent, either order.
	b := model.NewBuilder()
	b.Sem("m", 1, model.SemCounting)
	p1 := b.Proc("p1")
	p1.P("m")
	p1.Label("cs1").Nop()
	p1.V("m")
	p2 := b.Proc("p2")
	p2.P("m")
	p2.Label("cs2").Nop()
	p2.V("m")
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, x, Options{})
	if !decide(t, a, RelMOW, "cs1", "cs2") {
		t.Error("critical sections should be MOW")
	}
	if decide(t, a, RelCCW, "cs1", "cs2") {
		t.Error("critical sections should never be concurrent")
	}
	if !decide(t, a, RelCHB, "cs1", "cs2") || !decide(t, a, RelCHB, "cs2", "cs1") {
		t.Error("both CHB directions should hold")
	}
	if decide(t, a, RelMHB, "cs1", "cs2") || decide(t, a, RelMHB, "cs2", "cs1") {
		t.Error("neither MHB direction should hold")
	}
}

func TestDataDependenceCreatesMHB(t *testing.T) {
	// p1 writes x, p2 reads x (observed write first): the dependence forces
	// the write before the read in every feasible execution.
	b := model.NewBuilder()
	p1 := b.Proc("p1")
	p1.Label("w").Write("x")
	p2 := b.Proc("p2")
	p2.Label("r").Read("x")
	x, err := b.BuildDeferred()
	if err != nil {
		t.Fatal(err)
	}
	x.Order = []model.OpID{0, 1}
	a := mustAnalyzer(t, x, Options{})
	// The dependence orients the accesses, not the whole event intervals:
	// the events may still overlap (the read event can begin before the
	// write event ends), so MHB does not hold — but the reverse order is
	// impossible, which CHB's asymmetry captures.
	if decide(t, a, RelMHB, "w", "r") {
		t.Error("MHB(w,r) should not hold: the events can overlap")
	}
	if !decide(t, a, RelCHB, "w", "r") {
		t.Error("CHB(w,r) should hold")
	}
	if decide(t, a, RelCHB, "r", "w") {
		t.Error("CHB(r,w) should not hold: dependence forbids read-then-write")
	}
	ai := mustAnalyzer(t, x, Options{IgnoreData: true})
	if !decide(t, ai, RelCHB, "r", "w") {
		t.Error("CHB(r,w) should hold when ignoring data dependences")
	}
}

func TestForkJoinOrdering(t *testing.T) {
	b := model.NewBuilder()
	main := b.Proc("main")
	main.Label("pre").Nop()
	child := main.Fork("child")
	child.Label("c").Nop()
	main.Label("mid").Nop()
	main.Join("child")
	main.Label("post").Nop()
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, x, Options{})
	if !decide(t, a, RelMHB, "pre", "c") {
		t.Error("pre MHB c (fork edge)")
	}
	if !decide(t, a, RelMHB, "c", "post") {
		t.Error("c MHB post (join edge)")
	}
	if !decide(t, a, RelCCW, "mid", "c") {
		t.Error("mid and c should be possibly concurrent")
	}
	if decide(t, a, RelMHB, "mid", "c") || decide(t, a, RelMHB, "c", "mid") {
		t.Error("mid and c are unordered")
	}
}

func TestScheduleCompletesDeadlockProneExecution(t *testing.T) {
	// Classic lock-order inversion: a naive greedy scheduler deadlocks, but
	// completions exist.
	b := model.NewBuilder()
	b.Sem("s", 1, model.SemCounting)
	b.Sem("t", 1, model.SemCounting)
	p1 := b.Proc("p1")
	p1.P("s").P("t").V("t").V("s")
	p2 := b.Proc("p2")
	p2.P("t").P("s").V("s").V("t")
	x, err := b.BuildDeferred()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := model.GreedySchedule(x, nil); !ok {
		// Greedy takes p1.P(s) then p2.P(t) and deadlocks; if this ever
		// changes the test still validates Schedule below.
		t.Log("greedy deadlocked as expected")
	}
	if err := Schedule(x, Options{}); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := model.Validate(x); err != nil {
		t.Fatalf("scheduled order invalid: %v", err)
	}
}

func TestScheduleReportsTrueDeadlock(t *testing.T) {
	b := model.NewBuilder()
	b.Sem("s", 0, model.SemCounting)
	b.Proc("p").P("s")
	x, err := b.BuildDeferred()
	if err != nil {
		t.Fatal(err)
	}
	if err := Schedule(x, Options{}); err == nil {
		t.Fatal("Schedule succeeded on an undeadlockable execution")
	}
}

func TestFindScheduleValid(t *testing.T) {
	x := semOrdered(t)
	a := mustAnalyzer(t, x, Options{})
	order, ok, err := a.FindSchedule()
	if err != nil || !ok {
		t.Fatalf("FindSchedule: ok=%v err=%v", ok, err)
	}
	if err := model.Replay(x, order, model.ConflictPairs(x)); err != nil {
		t.Errorf("found schedule invalid: %v", err)
	}
}

func TestCountSchedules(t *testing.T) {
	// Two independent 1-nop events: each proc contributes 3 actions
	// (begin, nop, end); interleavings = C(6,3) = 20.
	b := model.NewBuilder()
	b.Proc("p1").Label("a").Nop()
	b.Proc("p2").Label("b").Nop()
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, x, Options{})
	n, err := a.CountSchedules(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("CountSchedules = %d, want 20", n)
	}
	// Truncation.
	n, err = a.CountSchedules(5)
	if !errors.Is(err, ErrTruncated) || n != 5 {
		t.Errorf("CountSchedules(limit=5) = %d, %v; want 5, ErrTruncated", n, err)
	}
}

func TestEnumerateSchedulesValid(t *testing.T) {
	x := semOrdered(t)
	a := mustAnalyzer(t, x, Options{})
	constraints := model.ConflictPairs(x)
	count, err := a.EnumerateSchedules(0, func(order []model.OpID) bool {
		cp := append([]model.OpID(nil), order...)
		if err := model.Replay(x, cp, constraints); err != nil {
			t.Errorf("enumerated schedule invalid: %v", err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("no schedules enumerated")
	}
}

func TestBudgetExceeded(t *testing.T) {
	x, a := searchingAnalyzer(t, Options{MaxNodes: 1})
	_, err := a.CHB(x.MustEventByLabel("a").ID, x.MustEventByLabel("b").ID)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestQueryValidation(t *testing.T) {
	x := semOrdered(t)
	a := mustAnalyzer(t, x, Options{})
	if _, err := a.MHB(0, 0); err == nil {
		t.Error("same-event query should fail")
	}
	if _, err := a.MHB(0, model.EventID(99)); err == nil {
		t.Error("out-of-range query should fail")
	}
	if _, err := a.Decide(context.Background(), RelKind(42), 0, 1); err == nil {
		t.Error("unknown relation kind should fail")
	}
}

func TestStatsAccumulate(t *testing.T) {
	_, a := searchingAnalyzer(t, Options{})
	if _, err := a.Relation(context.Background(), RelMHB); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Nodes == 0 {
		t.Error("no nodes recorded")
	}
	a.ResetStats()
	if a.Stats().Nodes != 0 {
		t.Error("ResetStats did not clear nodes")
	}
	a.DropMemo()
	if a.Stats().CompleteMemo != 0 {
		t.Error("DropMemo did not clear memo")
	}
}

func TestRelKindProperties(t *testing.T) {
	if !RelMHB.MustHave() || RelCHB.MustHave() {
		t.Error("MustHave wrong")
	}
	if RelMHB.Symmetric() || !RelCCW.Symmetric() {
		t.Error("Symmetric wrong")
	}
	if RelKind(42).String() == "" {
		t.Error("unknown kind String empty")
	}
}

// randomExecution builds a small random execution (2–3 procs, mixed op
// kinds) that is guaranteed to complete (verified by scheduling it).
func randomExecution(rng *rand.Rand) *model.Execution {
	for {
		b := model.NewBuilder()
		b.Sem("s", rng.Intn(2), model.SemCounting)
		b.Sem("m", 1, model.SemCounting)
		nproc := 2 + rng.Intn(2)
		for p := 0; p < nproc; p++ {
			pb := b.Proc(fmt.Sprintf("p%d", p))
			nops := 1 + rng.Intn(3)
			for o := 0; o < nops; o++ {
				switch rng.Intn(8) {
				case 0:
					pb.Nop()
				case 1:
					pb.Read("x")
				case 2:
					pb.Write("x")
				case 3:
					pb.P("s")
				case 4:
					pb.V("s")
				case 5:
					pb.Post("e")
				case 6:
					pb.Wait("e")
				case 7:
					pb.Clear("e")
				}
			}
		}
		x, err := b.BuildDeferred()
		if err != nil {
			continue
		}
		if err := Schedule(x, Options{}); err != nil {
			continue // deadlocks in every interleaving; try again
		}
		return x
	}
}

// TestEngineMatchesBruteForce is the definitional cross-validation (E1):
// the memoized search engine must agree with exhaustive enumeration of
// Table 1's definitions on randomized executions, in both data modes.
func TestEngineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		x := randomExecution(rng)
		for _, ignore := range []bool{false, true} {
			opts := Options{IgnoreData: ignore}
			brute, err := BruteRelations(x, opts, 2_000_000)
			if err != nil {
				t.Fatalf("trial %d: brute: %v", trial, err)
			}
			a := mustAnalyzer(t, x, opts)
			for _, kind := range AllRelKinds {
				got, err := a.Relation(context.Background(), kind)
				if err != nil {
					t.Fatalf("trial %d: %s: %v", trial, kind, err)
				}
				if !got.Equal(brute.Relations[kind]) {
					t.Errorf("trial %d (ignore=%v): %s mismatch\nengine:\n%s\nbrute:\n%s\nexecution: %s",
						trial, ignore, kind, got.FormatMatrix(x), brute.Relations[kind].FormatMatrix(x), x)
				}
			}
		}
	}
}

// TestRelationIdentities checks the dualities implied by Table 1 on random
// executions: MOW = ¬CCW, MCW = ¬COW, MHB ⊆ CHB, MHB(a,b) ⇒ ¬CHB(b,a),
// and CHB(a,b) ∨ CHB(b,a) ∨ CCW(a,b) for every pair.
func TestRelationIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		x := randomExecution(rng)
		a := mustAnalyzer(t, x, Options{})
		rels, err := a.AllRelations(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n := x.NumEvents()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				ea, eb := model.EventID(i), model.EventID(j)
				if rels[RelMOW].Has(ea, eb) == rels[RelCCW].Has(ea, eb) {
					t.Fatalf("trial %d: MOW != ¬CCW at (%d,%d)", trial, i, j)
				}
				if rels[RelMCW].Has(ea, eb) == rels[RelCOW].Has(ea, eb) {
					t.Fatalf("trial %d: MCW != ¬COW at (%d,%d)", trial, i, j)
				}
				if rels[RelMHB].Has(ea, eb) && !rels[RelCHB].Has(ea, eb) {
					t.Fatalf("trial %d: MHB ⊄ CHB at (%d,%d)", trial, i, j)
				}
				if rels[RelMHB].Has(ea, eb) && rels[RelCHB].Has(eb, ea) {
					t.Fatalf("trial %d: MHB(a,b) ∧ CHB(b,a) at (%d,%d)", trial, i, j)
				}
				if !rels[RelCHB].Has(ea, eb) && !rels[RelCHB].Has(eb, ea) && !rels[RelCCW].Has(ea, eb) {
					t.Fatalf("trial %d: pair (%d,%d) in no relation", trial, i, j)
				}
			}
		}
	}
}

// TestMHBRelationFastPathAgrees: the pruned all-pairs computation must
// produce exactly the naive matrix.
func TestMHBRelationFastPathAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 12; trial++ {
		x := randomExecution(rng)
		a := mustAnalyzer(t, x, Options{})
		naive, err := a.Relation(context.Background(), RelMHB)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := a.MHBRelation(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Equal(naive) {
			t.Fatalf("trial %d: fast MHB differs\nfast:\n%s\nnaive:\n%s",
				trial, fast.FormatMatrix(x), naive.FormatMatrix(x))
		}
	}
}

// TestMHBStructuralProperties: MHB must be transitive and irreflexive-
// compatible (a strict partial order), and must contain the static program
// order, on random executions.
func TestMHBStructuralProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		x := randomExecution(rng)
		a := mustAnalyzer(t, x, Options{})
		mhb, err := a.Relation(context.Background(), RelMHB)
		if err != nil {
			t.Fatal(err)
		}
		if !mhb.IsTransitive() {
			t.Fatalf("trial %d: MHB not transitive:\n%s", trial, mhb.FormatMatrix(x))
		}
		if !mhb.IsAntisymmetric() {
			t.Fatalf("trial %d: MHB not antisymmetric", trial)
		}
		po := model.ProgramOrder(x)
		if !po.SubsetOf(mhb) {
			t.Fatalf("trial %d: program order ⊄ MHB\nPO:\n%s\nMHB:\n%s",
				trial, po.FormatMatrix(x), mhb.FormatMatrix(x))
		}
	}
}

// TestDisableMemoSameAnswers: the ablation mode must not change verdicts.
func TestDisableMemoSameAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 8; trial++ {
		x := randomExecution(rng)
		withMemo := mustAnalyzer(t, x, Options{})
		without := mustAnalyzer(t, x, Options{DisableMemo: true})
		for _, kind := range AllRelKinds {
			r1, err := withMemo.Relation(context.Background(), kind)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := without.Relation(context.Background(), kind)
			if err != nil {
				t.Fatal(err)
			}
			if !r1.Equal(r2) {
				t.Fatalf("trial %d: %s differs without memoization", trial, kind)
			}
		}
		if without.Stats().MemoHits != 0 {
			t.Error("memo hits recorded with memo disabled")
		}
	}
}

func TestNumActions(t *testing.T) {
	x := semOrdered(t)
	a := mustAnalyzer(t, x, Options{})
	// a (begin+nop+end) + V + P + b (begin+nop+end) = 8 actions.
	if a.NumActions() != 8 {
		t.Errorf("NumActions = %d, want 8", a.NumActions())
	}
}
