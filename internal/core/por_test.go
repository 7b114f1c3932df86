package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"eventorder/internal/model"
)

// requirePOROnOffAgree asserts that POR-on and POR-off produce bit-identical
// relation matrices, both per-pair and through the batch engine.
func requirePOROnOffAgree(t *testing.T, tag string, x *model.Execution, opts Options) {
	t.Helper()
	offOpts := opts
	offOpts.DisablePOR = true
	off := mustAnalyzer(t, x, offOpts)
	want, err := off.AllRelations(context.Background())
	if err != nil {
		t.Fatalf("%s: POR-off AllRelations: %v", tag, err)
	}
	on := mustAnalyzer(t, x, opts)
	got, err := on.AllRelations(context.Background())
	if err != nil {
		t.Fatalf("%s: POR-on AllRelations: %v", tag, err)
	}
	for _, kind := range AllRelKinds {
		if !got[kind].Equal(want[kind]) {
			t.Errorf("%s: per-pair %s differs POR on vs off:\non:\n%s\noff:\n%s",
				tag, kind, got[kind].FormatMatrix(x), want[kind].FormatMatrix(x))
		}
	}
	a := mustAnalyzer(t, x, opts)
	mOn, err := a.Matrix(context.Background(), nil, MatrixOpts{})
	if err != nil {
		t.Fatalf("%s: Matrix POR-on: %v", tag, err)
	}
	b := mustAnalyzer(t, x, opts)
	mOff, err := b.Matrix(context.Background(), nil, MatrixOpts{DisablePOR: true})
	if err != nil {
		t.Fatalf("%s: Matrix POR-off: %v", tag, err)
	}
	for _, kind := range AllRelKinds {
		if !mOn.Relations[kind].Equal(mOff.Relations[kind]) {
			t.Errorf("%s: Matrix %s differs POR on vs off:\non:\n%s\noff:\n%s",
				tag, kind, mOn.Relations[kind].FormatMatrix(x), mOff.Relations[kind].FormatMatrix(x))
		}
		if !mOn.Relations[kind].Equal(want[kind]) {
			t.Errorf("%s: Matrix %s POR-on differs from per-pair POR-off:\nbatch:\n%s\nper-pair:\n%s",
				tag, kind, mOn.Relations[kind].FormatMatrix(x), want[kind].FormatMatrix(x))
		}
	}
}

// TestPOROnOffVerdictsAgreeTestdata runs the on/off differential gate on
// every committed example trace.
func TestPOROnOffVerdictsAgreeTestdata(t *testing.T) {
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
			requirePOROnOffAgree(t, name, x, Options{})
		})
	}
}

// TestPOROnOffVerdictsAgreeRandom runs the on/off differential gate on
// randomized executions in both data modes.
func TestPOROnOffVerdictsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2704))
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		x := randomExecution(rng)
		for _, ignore := range []bool{false, true} {
			requirePOROnOffAgree(t, fmt.Sprintf("trial %d ignore=%v", trial, ignore), x, Options{IgnoreData: ignore})
		}
	}
}

// matrixEdges runs a full Matrix on a fresh analyzer and returns the
// explored-edge count.
func matrixEdges(t *testing.T, x *model.Execution, disable bool) int64 {
	t.Helper()
	a := mustAnalyzer(t, x, Options{})
	if _, err := a.Matrix(context.Background(), nil, MatrixOpts{DisablePOR: disable}); err != nil {
		t.Fatalf("Matrix(disablePOR=%v): %v", disable, err)
	}
	return a.Stats().Edges
}

// TestPORReducesEdges pins the payoff on the committed example traces:
// sleep sets must explore strictly fewer edges wherever the trace has any
// commuting concurrency. (These traces are tiny — the ≥2x reduction the
// tentpole targets is asserted on bench-scale workloads in
// internal/gen/por_edges_test.go; nodes are identical by construction
// since sleep sets prune edges, never states.)
func TestPORReducesEdges(t *testing.T) {
	for _, name := range []string{"barrier.evo", "pipeline.evo"} {
		t.Run(name, func(t *testing.T) {
			x := loadTrace(t, name)
			on := matrixEdges(t, x, false)
			off := matrixEdges(t, x, true)
			t.Logf("%s: edges POR-on=%d POR-off=%d (%.2fx)", name, on, off, float64(off)/float64(on))
			if on == 0 || off == 0 {
				t.Fatalf("edge counters not populated: on=%d off=%d", on, off)
			}
			if on >= off {
				t.Errorf("POR explored %d edges vs %d without; want strictly fewer", on, off)
			}
		})
	}
}

// TestPORBatchNodesUnchanged verifies the states-preserved property
// directly: the POR batch interns and expands exactly the same states as
// the unreduced batch.
func TestPORBatchNodesUnchanged(t *testing.T) {
	for _, name := range []string{"barrier.evo", "handshake.evo", "dining2.evo"} {
		x := loadTrace(t, name)
		a := mustAnalyzer(t, x, Options{})
		if _, err := a.Matrix(context.Background(), nil, MatrixOpts{}); err != nil {
			t.Fatal(err)
		}
		b := mustAnalyzer(t, x, Options{})
		if _, err := b.Matrix(context.Background(), nil, MatrixOpts{DisablePOR: true}); err != nil {
			t.Fatal(err)
		}
		if an, bn := a.Stats().Nodes, b.Stats().Nodes; an != bn {
			t.Errorf("%s: POR-on expanded %d states, POR-off %d; sleep sets must not prune states", name, an, bn)
		}
	}
}

// TestPORMemoReexploration exercises the conditional-verdict path: per-pair
// POR queries leave false completion-memo entries that are valid only under
// the sleep sets they were computed with; a following exact root query
// (sleep set empty) must re-explore the slept transitions rather than reuse
// them, and agree with a fresh unreduced analyzer on every relation.
func TestPORMemoReexploration(t *testing.T) {
	for _, name := range []string{"crossdep.evo", "handshake.evo", "dining2.evo"} {
		t.Run(name, func(t *testing.T) {
			x := loadTrace(t, name)
			a := mustAnalyzer(t, x, Options{})
			// Warm the persistent memo with POR queries in both directions.
			got, err := a.AllRelations(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// Root-level completability on the warmed memo must stay exact.
			ok, err := a.CanComplete()
			if err != nil || !ok {
				t.Fatalf("CanComplete on warmed memo = (%v, %v), want (true, nil)", ok, err)
			}
			off := mustAnalyzer(t, x, Options{DisablePOR: true})
			want, err := off.AllRelations(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range AllRelKinds {
				if !got[kind].Equal(want[kind]) {
					t.Errorf("%s: %s differs from unreduced analyzer", name, kind)
				}
			}
		})
	}
}

// TestPORManyProcsFallsBack builds an execution with more than 64 processes
// and verifies POR disables itself (sleep masks are 64-bit) while queries
// still answer correctly.
func TestPORManyProcsFallsBack(t *testing.T) {
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
	if a.por {
		t.Fatal("POR stayed enabled on a 66-process execution")
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

// TestPORWitnessesAgree checks witness extraction on top of POR-backed
// completion probes: verdicts and witness presence match the unreduced
// engine on every pair and kind of a few traces.
func TestPORWitnessesAgree(t *testing.T) {
	for _, name := range []string{"figure1.evo", "handshake.evo"} {
		x := loadTrace(t, name)
		on := mustAnalyzer(t, x, Options{})
		off := mustAnalyzer(t, x, Options{DisablePOR: true})
		n := len(x.Events)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				for _, kind := range AllRelKinds {
					wOn, err := on.WitnessSchedule(context.Background(), kind, model.EventID(i), model.EventID(j))
					if err != nil {
						t.Fatal(err)
					}
					wOff, err := off.WitnessSchedule(context.Background(), kind, model.EventID(i), model.EventID(j))
					if err != nil {
						t.Fatal(err)
					}
					if wOn.Holds != wOff.Holds || (wOn.Order == nil) != (wOff.Order == nil) {
						t.Fatalf("%s: witness %s(%d,%d) differs: on=(%v,order=%v) off=(%v,order=%v)",
							name, kind, i, j, wOn.Holds, wOn.Order != nil, wOff.Holds, wOff.Order != nil)
					}
				}
			}
		}
	}
}
