package oracle

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

// TestOracleTestdata runs the full differential suite — brute enumeration,
// per-pair with and without reduction, batch matrices, witness validation —
// over every committed example trace in both data modes.
func TestOracleTestdata(t *testing.T) {
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
				rng := rand.New(rand.NewSource(1))
				if err := Verify(x, Config{IgnoreData: ignore}, rng); err != nil {
					t.Errorf("ignoreData=%v: %v", ignore, err)
				}
			}
		})
	}
}

// oracleTrials returns the randomized-program count per style: the suite
// covers ≥500 executions total across the two generators in full mode,
// scaled down under -short.
func oracleTrials() int {
	if testing.Short() {
		return 30
	}
	return 250
}

// TestOracleRandomExecutions runs the differential suite over seeded random
// straight-line executions (semaphore + event-variable sync mixed at the
// builder level).
func TestOracleRandomExecutions(t *testing.T) {
	trials := oracleTrials()
	const shards = 10
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			for i := 0; i < trials/shards; i++ {
				x, err := gen.Random(rng, gen.RandomOptions{
					Procs: 3, OpsPerProc: 3, Sems: 2, Events: 1, Vars: 2, SemInit: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(x, Config{}, rng); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestOracleRandomPrograms runs the differential suite over executions of
// seeded random mini-language programs with if/while branching and both
// synchronization styles.
func TestOracleRandomPrograms(t *testing.T) {
	trials := oracleTrials()
	const shards = 10
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(2000 + s)))
			for i := 0; i < trials/shards; i++ {
				x, err := gen.RandomProgramExecution(rng, gen.RandomProgramOptions{
					Procs: 3, StmtsPerProc: 4, Sems: 1, Events: 1, Vars: 2, SemInit: 1, Branches: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(x, Config{}, rng); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestOracleCertificate runs the certificate axis over the gen shapes and
// the oracle's random executions and programs, in both data modes
// (TestOracleTestdata covers the testdata programs through Check): every
// execution core certifies leaves the plan no residue, and its planned
// matrices equal brute force (the exact search where enumeration does not
// fit, as on the corpus's fork/join tree).
func TestOracleCertificate(t *testing.T) {
	var xs []*model.Execution
	corpus, err := gen.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	xs = append(xs, corpus...)
	for _, mk := range []func() (*model.Execution, error){
		func() (*model.Execution, error) { return gen.Pipeline(5) },
		func() (*model.Execution, error) { return gen.ForkJoinTree(2) },
		func() (*model.Execution, error) { return gen.SingleSem(2, 1, 1, 2) },
	} {
		x, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	rng := rand.New(rand.NewSource(3000))
	for i := 0; i < oracleTrials()/5; i++ {
		x, err := gen.Random(rng, gen.RandomOptions{
			Procs: 3, OpsPerProc: 3, Sems: 2, Events: 1, Vars: 2, SemInit: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
		x, err = gen.RandomProgramExecution(rng, gen.RandomProgramOptions{
			Procs: 3, StmtsPerProc: 4, Sems: 1, Events: 1, Vars: 2, SemInit: 1, Branches: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	for _, ignore := range []bool{false, true} {
		t.Run(fmt.Sprintf("ignoreData=%v", ignore), func(t *testing.T) {
			t.Parallel()
			opts := core.Options{IgnoreData: ignore}
			certified := 0
			for i, x := range xs {
				ok, err := checkCertificate(x, opts, certificateReference(t, x, opts))
				if err != nil {
					t.Fatalf("execution %d: %v", i, err)
				}
				if ok {
					certified++
				}
			}
			t.Logf("%d of %d executions certified", certified, len(xs))
			if certified == 0 {
				t.Error("no execution certified; the axis checks nothing")
			}
		})
	}
}

// certificateReference returns the matrices TestOracleCertificate holds
// x's planned matrices to: brute force, or the unseeded batch Matrix where
// x has more interleavings than the default enumeration limit.
func certificateReference(t *testing.T, x *model.Execution, opts core.Options) map[core.RelKind]*model.Relation {
	t.Helper()
	want, err := bruteRelations(x, opts, Config{}.withDefaults().BruteLimit)
	if err != nil {
		t.Fatal(err)
	}
	if want != nil {
		return want
	}
	an, err := core.New(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := an.Matrix(context.Background(), nil, core.MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return m.Relations
}

// TestShrinkMinimizes drives the shrinker with a synthetic failure
// predicate — "the execution still contains a P on semaphore m" — and
// checks it reduces a 6-process, many-event execution to a single process
// holding a single event.
func TestShrinkMinimizes(t *testing.T) {
	x, err := gen.Mutex(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	hasAcquire := func(c *model.Execution) bool {
		for i := range c.Ops {
			if c.Ops[i].Kind == model.OpAcquire {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(3))
	min := shrink(x, hasAcquire, rng)
	if !hasAcquire(min) {
		t.Fatal("shrinker returned a passing execution")
	}
	if len(min.Procs) != 1 || len(min.Events) != 1 {
		t.Errorf("minimized to %d procs, %d events; want 1 proc, 1 event (P(m) alone)",
			len(min.Procs), len(min.Events))
	}
}

// TestShrinkBailsOnForkJoin pins the shrinker's fork/join escape hatch: the
// rebuild cannot model dropped fork edges, so such executions come back
// untouched.
func TestShrinkBailsOnForkJoin(t *testing.T) {
	x, err := gen.ForkJoinTree(2)
	if err != nil {
		t.Fatal(err)
	}
	min := shrink(x, func(*model.Execution) bool { return true }, rand.New(rand.NewSource(4)))
	if min != x {
		t.Error("fork/join execution was rebuilt; want returned unshrunk")
	}
}

// TestRebuildWithoutDropsEvent checks the rebuild primitive: removing one
// event yields a valid, schedulable execution with exactly that event gone.
func TestRebuildWithoutDropsEvent(t *testing.T) {
	x, err := gen.Mutex(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cand := rebuildWithout(x, model.ProcID(model.NoID), x.Events[0].ID)
	if cand == nil {
		t.Fatal("rebuild failed on a droppable event")
	}
	if got, want := len(cand.Events), len(x.Events)-1; got != want {
		t.Errorf("events after drop = %d, want %d", got, want)
	}
	if err := model.Validate(cand); err != nil {
		t.Errorf("rebuilt execution invalid: %v", err)
	}
}
