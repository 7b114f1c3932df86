package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
)

// requireMatrixEqualsSequential asserts that Matrix produces matrices
// bit-identical to independent per-pair Relation calls on a fresh
// analyzer, on both memo layouts.
func requireMatrixEqualsSequential(t *testing.T, tag string, x *model.Execution, opts Options) {
	t.Helper()
	want := map[RelKind]*model.Relation{}
	seq := mustAnalyzer(t, x, opts)
	for _, kind := range AllRelKinds {
		r, err := seq.Relation(context.Background(), kind)
		if err != nil {
			t.Fatalf("%s: sequential %s: %v", tag, kind, err)
		}
		want[kind] = r
	}
	for _, l := range layouts {
		a := mustAnalyzer(t, x, opts).withCellLimit(l.maxCells)
		got, err := a.Matrix(context.Background(), nil, MatrixOpts{})
		if err != nil {
			t.Fatalf("%s %s: Matrix: %v", tag, l.name, err)
		}
		if !got.Complete {
			t.Fatalf("%s %s: Matrix incomplete with no interruption", tag, l.name)
		}
		for _, kind := range AllRelKinds {
			if !got.Relations[kind].Equal(want[kind]) {
				t.Errorf("%s %s: Matrix %s differs from per-pair:\nbatch:\n%s\nsequential:\n%s",
					tag, l.name, kind, got.Relations[kind].FormatMatrix(x), want[kind].FormatMatrix(x))
			}
		}
	}
}

// TestMatrixMatchesSequentialRandom is the batch engine's differential
// gate on randomized executions, in both data modes.
func TestMatrixMatchesSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		x := randomExecution(rng)
		for _, ignore := range []bool{false, true} {
			requireMatrixEqualsSequential(t, fmt.Sprintf("trial %d ignore=%v", trial, ignore), x, Options{IgnoreData: ignore})
		}
	}
}

// TestMatrixMatchesBruteForce pins the batch derivation directly against
// exhaustive enumeration of Table 1's definitions (not just against the
// per-pair engine, whose acceptance logic the batch partly shares), on
// both memo layouts.
func TestMatrixMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(908))
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		x := randomExecution(rng)
		brute, err := BruteRelations(x, Options{}, 2_000_000)
		if err != nil {
			t.Fatalf("trial %d: brute: %v", trial, err)
		}
		for _, l := range layouts {
			a := mustAnalyzer(t, x, Options{}).withCellLimit(l.maxCells)
			got, err := a.Matrix(context.Background(), nil, MatrixOpts{})
			if err != nil {
				t.Fatalf("trial %d %s: Matrix: %v", trial, l.name, err)
			}
			for _, kind := range AllRelKinds {
				if !got.Relations[kind].Equal(brute.Relations[kind]) {
					t.Errorf("trial %d %s: Matrix %s differs from brute force:\nbatch:\n%s\nbrute:\n%s",
						trial, l.name, kind, got.Relations[kind].FormatMatrix(x), brute.Relations[kind].FormatMatrix(x))
				}
			}
		}
	}
}

// loadTrace runs one testdata program under a seeded scheduler and returns
// its observed execution.
func loadTrace(t testing.TB, name string) *model.Execution {
	t.Helper()
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
	return res.X
}

// TestMatrixMatchesSequentialTestdata runs the differential gate on every
// committed example trace.
func TestMatrixMatchesSequentialTestdata(t *testing.T) {
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
			x := loadTrace(t, name)
			requireMatrixEqualsSequential(t, name, x, Options{})
		})
	}
}

// TestMatrixSubsetKinds: asking for fewer kinds returns exactly those, with
// the same verdicts.
func TestMatrixSubsetKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randomExecution(rng)
	a := mustAnalyzer(t, x, Options{})
	all, err := a.Matrix(context.Background(), nil, MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	some, err := a.Matrix(context.Background(), []RelKind{RelMHB, RelCCW}, MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(some.Relations) != 2 {
		t.Fatalf("got %d kinds, want 2", len(some.Relations))
	}
	for _, kind := range []RelKind{RelMHB, RelCCW} {
		if !some.Relations[kind].Equal(all.Relations[kind]) {
			t.Errorf("%s differs between subset and full call", kind)
		}
	}
	if _, err := a.Matrix(context.Background(), []RelKind{RelKind(42)}, MatrixOpts{}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestMatrixBudget: a tiny state budget must yield a partial anytime
// result — nil error, Complete false, a budget cause, and a checkpoint
// that can resume — not hang, fail, or succeed.
func TestMatrixBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randomExecution(rng)
	a := mustAnalyzer(t, x, Options{})
	m, err := a.Matrix(context.Background(), nil, MatrixOpts{Budget: 1})
	if err != nil {
		t.Fatalf("got error %v, want partial result", err)
	}
	if m.Complete {
		t.Fatal("budget 1 claims a complete matrix")
	}
	if !errors.Is(m.Cause, ErrBudget) {
		t.Errorf("cause = %v, want ErrBudget", m.Cause)
	}
	if m.Checkpoint == nil {
		t.Error("partial result carries no checkpoint")
	}
}

// TestMatrixCancel: a context that is dead before the exploration starts
// yields an empty-but-resumable partial, not an error — the anytime
// contract holds no matter when the interruption struck.
func TestMatrixCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randomExecution(rng)
	a := mustAnalyzer(t, x, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := a.Matrix(ctx, nil, MatrixOpts{})
	if err != nil {
		t.Fatalf("got error %v, want partial result", err)
	}
	if m.Complete {
		t.Fatal("canceled-before-start matrix claims to be complete")
	}
	if !errors.Is(m.Cause, context.Canceled) {
		t.Errorf("cause = %v, want context.Canceled", m.Cause)
	}
	if got := m.DecidedPairs(); got != 0 {
		t.Errorf("canceled-before-start matrix decided %d pairs, want 0", got)
	}
	if m.Checkpoint == nil {
		t.Fatal("canceled-before-start partial carries no checkpoint")
	}
	// The checkpoint must resume to the full answer.
	b := mustAnalyzer(t, x, Options{})
	res, err := b.Matrix(context.Background(), nil, MatrixOpts{Resume: m.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("resume from empty checkpoint did not complete")
	}
}

// TestMatrixWarmStartsCompletionMemo: a Matrix call must leave the
// analyzer's persistent completion memo holding every state the run
// reached — the states it expanded plus the terminal states, which the
// forward sweep interns but never expands — so subsequent per-pair
// queries reuse it.
func TestMatrixWarmStartsCompletionMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randomExecution(rng)
	a := mustAnalyzer(t, x, Options{})
	m, err := a.Matrix(context.Background(), nil, MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	terminal := 0
	a.rangeMemo(func(key []uint64, _ bool) bool {
		a.unpackKey(key)
		if a.allDone() {
			terminal++
		}
		return true
	})
	if terminal == 0 {
		t.Fatal("completion memo holds no terminal state after Matrix")
	}
	if got, want := int64(a.Stats().CompleteMemo), m.Expanded+int64(terminal); got != want {
		t.Fatalf("completion memo holds %d states, want %d expanded + %d terminal", got, m.Expanded, terminal)
	}
	a.ResetStats()
	if _, err := a.Decide(context.Background(), RelCHB, 0, 1); err != nil {
		t.Fatal(err)
	}
	if a.Stats().MemoHits == 0 {
		t.Error("per-pair query after Matrix reused no memoized completion facts")
	}
}

// TestMatrixNodesAccounted: Matrix folds its expanded-state count into the
// analyzer's cumulative stats.
func TestMatrixNodesAccounted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randomExecution(rng)
	a := mustAnalyzer(t, x, Options{})
	a.ResetStats()
	if _, err := a.Matrix(context.Background(), nil, MatrixOpts{}); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Nodes == 0 {
		t.Error("Matrix charged no nodes to Stats")
	}
}
