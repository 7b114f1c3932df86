package plan

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"eventorder/internal/core"
	"eventorder/internal/gen"
	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
)

// loadTrace parses and runs a testdata program, returning its observed
// execution.
func loadTrace(t testing.TB, name string) *model.Execution {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.RunAvoidingDeadlock(prog, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res.X
}

// exactMatrix computes the unplanned reference matrices.
func exactMatrix(t testing.TB, x *model.Execution, ignoreData bool) map[core.RelKind]*model.Relation {
	t.Helper()
	an, err := core.New(x, core.Options{IgnoreData: ignoreData})
	if err != nil {
		t.Fatal(err)
	}
	rels, err := an.Matrix(context.Background(), core.AllRelKinds, core.MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return rels.Relations
}

// checkPlanned verifies, against the unplanned reference, everything the
// planner promises for one execution: bit-identical matrices, seed
// soundness fact by fact, verdict-correct provenance, and accounting
// (every pair attributed to exactly one tier or the residue).
func checkPlanned(t *testing.T, x *model.Execution, opts Options) {
	t.Helper()
	want := exactMatrix(t, x, opts.IgnoreData)
	res, err := Analyze(context.Background(), x, nil,
		core.Options{IgnoreData: opts.IgnoreData}, core.MatrixOpts{Tiers: opts.Tiers})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range core.AllRelKinds {
		if !res.Relations[kind].Equal(want[kind]) {
			t.Errorf("%s: planned matrix differs from exact\nplanned:\n%s\nexact:\n%s",
				kind, res.Relations[kind].FormatMatrix(x), want[kind].FormatMatrix(x))
		}
	}
	p := res.Plan
	n := x.NumEvents()
	if p.TotalPairs != n*(n-1) {
		t.Errorf("TotalPairs = %d, want %d", p.TotalPairs, n*(n-1))
	}
	decided := 0
	for _, st := range p.Tiers {
		decided += st.PairsDecided
	}
	if decided+p.Residue != p.TotalPairs {
		t.Errorf("tier accounting: decided %d + residue %d != total %d",
			decided, p.Residue, p.TotalPairs)
	}
	// Every polynomial fact must agree with exact truth (seed soundness),
	// and every pair a tier claims must have all its verdicts both
	// decided and correct; residue pairs must be attributed to TierExact,
	// and each tier's count must be the distinct pairs attributed to it.
	attributed := make(map[Tier]int)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a, b := model.EventID(i), model.EventID(j)
			tier := p.DecidedTier(a, b)
			attributed[tier]++
			for _, kind := range core.AllRelKinds {
				v := p.Seed.Verdict(kind, a, b)
				if v.Decided() && v.Holds() != want[kind].Has(a, b) {
					t.Errorf("seed verdict %s(%d,%d) = %v, exact says %v",
						kind, a, b, v.Holds(), want[kind].Has(a, b))
				}
				if tier != TierExact && !v.Decided() {
					t.Errorf("pair (%d,%d) attributed to tier %s but %s verdict undecided",
						a, b, tier, kind)
				}
			}
		}
	}
	for _, st := range p.Tiers {
		if attributed[st.Tier] != st.PairsDecided {
			t.Errorf("tier %s counts %d pairs decided, %d pairs are attributed to it",
				st.Tier, st.PairsDecided, attributed[st.Tier])
		}
	}
	if attributed[TierExact] != p.Residue {
		t.Errorf("residue %d, %d pairs are attributed to the exact engine", p.Residue, attributed[TierExact])
	}
}

// TestPlanDifferential is the differential smoke suite CI runs: on every
// committed example trace, in both data modes and at every cascade depth,
// the planned analysis must be bit-identical to the exact-only engine and
// the plan's bookkeeping must balance.
func TestPlanDifferential(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".evo" {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			x := loadTrace(t, name)
			for _, ignore := range []bool{false, true} {
				for _, tiers := range []int{-1, 1, 2, 3, 0} {
					checkPlanned(t, x, Options{IgnoreData: ignore, Tiers: tiers})
				}
			}
		})
	}
}

// TestPlanRandomPrograms repeats the differential check over seeded random
// mini-language programs with branching, both sync styles, and
// Post/Wait/Clear in play.
func TestPlanRandomPrograms(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	const shards = 6
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(7000 + s)))
			for i := 0; i < trials/shards; i++ {
				x, err := gen.RandomProgramExecution(rng, gen.RandomProgramOptions{
					Procs: 3, StmtsPerProc: 4, Sems: 1, Events: 1, Vars: 2, SemInit: 1, Branches: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkPlanned(t, x, Options{})
			}
		})
	}
}

// TestPlanTiersKnob pins the Tiers cap semantics: negative disables the
// cascade entirely, 1..3 run prefixes of it, and every setting still
// yields exact verdicts.
func TestPlanTiersKnob(t *testing.T) {
	x := loadTrace(t, "pipeline.evo")
	want := exactMatrix(t, x, false)
	for _, tiers := range []int{-1, 1, 2, 3, 0} {
		res, err := Analyze(context.Background(), x, nil,
			core.Options{}, core.MatrixOpts{Tiers: tiers})
		if err != nil {
			t.Fatalf("Tiers=%d: %v", tiers, err)
		}
		wantTiers := tiers
		if tiers == 0 {
			wantTiers = NumPolyTiers
		}
		if tiers < 0 {
			wantTiers = 0
		}
		if len(res.Plan.Tiers) != wantTiers {
			t.Errorf("Tiers=%d: ran %d tiers, want %d", tiers, len(res.Plan.Tiers), wantTiers)
		}
		if tiers < 0 && res.Plan.Residue != res.Plan.TotalPairs {
			t.Errorf("Tiers=%d: residue %d, want all %d pairs", tiers, res.Plan.Residue, res.Plan.TotalPairs)
		}
		for _, kind := range core.AllRelKinds {
			if !res.Relations[kind].Equal(want[kind]) {
				t.Errorf("Tiers=%d: %s differs from exact", tiers, kind)
			}
		}
	}
}

// TestPlanTierOrderMonotone checks the cascade only ever narrows the
// residue: running more tiers never decides fewer pairs.
func TestPlanTierOrderMonotone(t *testing.T) {
	x := loadTrace(t, "barrier.evo")
	prev := -1
	for tiers := 1; tiers <= NumPolyTiers; tiers++ {
		p, err := Build(x, nil, Options{Tiers: tiers})
		if err != nil {
			t.Fatal(err)
		}
		decided := p.TotalPairs - p.Residue
		if decided < prev {
			t.Errorf("tiers=%d decided %d pairs, fewer than %d with one tier less", tiers, decided, prev)
		}
		prev = decided
	}
}

// floorShapes returns every shape of BENCH_matrix.json and of the core
// pre-check tests (precheckCases in internal/core): the testdata traces,
// the generator shapes, and seeded random programs.
func floorShapes(t testing.TB) []floorShape {
	var shapes []floorShape
	add := func(name string, x *model.Execution, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shapes = append(shapes, floorShape{name, x})
	}
	entries, err := os.ReadDir(filepath.Join("..", "..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".evo" {
			add(e.Name(), loadTrace(t, e.Name()), nil)
		}
	}
	x, err := gen.Mutex(4, 3)
	add("mutex4x3", x, err)
	for n := 4; n <= 5; n++ {
		x, err := gen.Barrier(n)
		add(fmt.Sprintf("barrier%d", n), x, err)
	}
	for n := 3; n <= 5; n++ {
		x, err := gen.ForkJoinTree(n)
		add(fmt.Sprintf("forkjoin%d", n), x, err)
	}
	x, err = gen.Pipeline(6)
	add("pipeline6", x, err)
	x, err = gen.ProducerConsumer(2, 1, 2)
	add("prodcons2x1x2", x, err)
	x, err = binaryHandoff()
	add("binaryhandoff", x, err)
	x, err = gen.SingleSem(2, 1, 2, 2)
	add("singlesem-init2", x, err)
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
	return shapes
}

type floorShape struct {
	name string
	x    *model.Execution
}

// binaryHandoff is the core pre-check tests' hand-off over binary
// semaphores: s (initially 0) passes control from sender to receiver, and
// m (initially 1) guards one critical section in each.
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

// planFloors holds, per floorShapes shape, the ordered pairs the planner
// this one replaced (HMW's fixpoint, a vector-clock cross-check and an
// endpoint DAG) decided: all six kinds and CCW alone, with the data
// dependences, then both again under IgnoreData.
var planFloors = map[string][4]int{
	"barrier.evo":       {60, 60, 60, 60},
	"barrier6.evo":      {228, 228, 228, 228},
	"burst.evo":         {48, 48, 48, 48},
	"crossdep.evo":      {0, 0, 0, 0},
	"dining2.evo":       {48, 48, 40, 40},
	"figure1.evo":       {30, 30, 28, 28},
	"handshake.evo":     {12, 12, 12, 12},
	"nearsym.evo":       {4, 4, 4, 4},
	"pipeline.evo":      {52, 52, 52, 52},
	"postwaitclear.evo": {44, 44, 44, 44},
	"singlesem.evo":     {16, 16, 14, 14},
	"symring.evo":       {24, 24, 24, 24},
	"mutex4x3":          {876, 876, 288, 288},
	"barrier4":          {184, 184, 184, 184},
	"barrier5":          {270, 270, 270, 270},
	"forkjoin3":         {134, 134, 134, 134},
	"forkjoin4":         {210, 210, 210, 210},
	"forkjoin5":         {302, 302, 302, 302},
	"pipeline6":         {272, 272, 272, 272},
	"prodcons2x1x2":     {112, 112, 112, 112},
	"binaryhandoff":     {60, 60, 60, 60},
	"singlesem-init2":   {26, 26, 26, 26},
	"random0":           {6, 12, 6, 12},
	"random1":           {0, 2, 0, 2},
	"random2":           {4, 4, 2, 4},
	"random3":           {20, 24, 20, 24},
	"random4":           {2, 2, 2, 2},
	"random5":           {6, 8, 6, 8},
	"random6":           {14, 20, 14, 20},
	"random7":           {2, 6, 2, 6},
	"random8":           {18, 20, 18, 20},
	"random9":           {0, 0, 0, 0},
	"random10":          {22, 22, 22, 22},
	"random11":          {8, 14, 4, 12},
	"events0":           {30, 32, 26, 28},
	"events1":           {12, 12, 12, 12},
	"events2":           {22, 36, 22, 36},
	"events3":           {18, 28, 18, 28},
	"events4":           {26, 26, 26, 26},
	"events5":           {18, 20, 18, 20},
	"events6":           {6, 10, 6, 10},
	"events7":           {104, 114, 62, 72},
}

// TestPlanDecidesUsefully guards the planner's reason to exist: on every
// shape it must decide at least the pairs planFloors records, for all six
// kinds and for CCW (the bench's bracket metric), in both data modes.
func TestPlanDecidesUsefully(t *testing.T) {
	shapes := floorShapes(t)
	if len(shapes) != len(planFloors) {
		t.Errorf("%d shapes, %d floors", len(shapes), len(planFloors))
	}
	for _, s := range shapes {
		floor, ok := planFloors[s.name]
		if !ok {
			t.Errorf("%s: no floor", s.name)
			continue
		}
		for m, ignore := range []bool{false, true} {
			for k, kinds := range [][]core.RelKind{nil, {core.RelCCW}} {
				p, err := Build(s.x, kinds, Options{IgnoreData: ignore})
				if err != nil {
					t.Fatal(err)
				}
				if got := p.TotalPairs - p.Residue; got < floor[2*m+k] {
					t.Errorf("%s kinds=%v ignoreData=%v: decided %d of %d pairs, floor %d",
						s.name, kinds, ignore, got, p.TotalPairs, floor[2*m+k])
				}
			}
		}
	}
}

// BenchmarkPlanBuild times an all-six Build on each BENCH_matrix.json
// shape — the testdata traces and the generator shapes cmd/bench runs —
// and on two shapes of several hundred events, a certified pipeline and
// an uncertified mutex, whose B/op the planner's n² bit planes dominate.
func BenchmarkPlanBuild(b *testing.B) {
	bench := map[string]bool{"mutex4x3": true, "barrier4": true, "barrier5": true, "pipeline6": true, "forkjoin4": true,
		"pipeline256": true, "mutex16x16": true}
	shapes := floorShapes(b)
	x, err := gen.Pipeline(256)
	if err != nil {
		b.Fatal(err)
	}
	shapes = append(shapes, floorShape{"pipeline256", x})
	if x, err = gen.Mutex(16, 16); err != nil {
		b.Fatal(err)
	}
	shapes = append(shapes, floorShape{"mutex16x16", x})
	for _, s := range shapes {
		if !bench[s.name] && filepath.Ext(s.name) != ".evo" {
			continue
		}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(s.x, nil, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanProvenanceStable checks provenance is a pure function of the
// execution: two Builds agree pair for pair.
func TestPlanProvenanceStable(t *testing.T) {
	x := loadTrace(t, "handshake.evo")
	p1, err := Build(x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := x.NumEvents()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a, b := model.EventID(i), model.EventID(j)
			if p1.DecidedTier(a, b) != p2.DecidedTier(a, b) {
				t.Fatalf("provenance of (%d,%d) differs across runs: %s vs %s",
					a, b, p1.DecidedTier(a, b), p2.DecidedTier(a, b))
			}
		}
	}
}
