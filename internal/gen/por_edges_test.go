package gen

import (
	"context"
	"testing"

	"eventorder/internal/core"
	"eventorder/internal/model"
)

// matrixEdges runs a full single-worker Matrix on a fresh analyzer and
// returns (edges explored, states expanded).
func matrixEdges(t *testing.T, x *model.Execution, disablePOR bool) (int64, int64) {
	t.Helper()
	a, err := core.New(x, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Matrix(context.Background(), nil, core.MatrixOpts{DisablePOR: disablePOR}); err != nil {
		t.Fatalf("Matrix(disablePOR=%v): %v", disablePOR, err)
	}
	s := a.Stats()
	return s.Edges, s.Nodes
}

// TestPORReducesEdgesBenchFamilies asserts the tentpole's headline number
// at benchmark scale: sleep-set reduction explores at least 2x fewer edges
// on the workload families with real commuting concurrency (barrier,
// fork/join tree, producer/consumer), while expanding the exact same
// states. The serialized families (pipeline chain, mutex) are checked for
// the opposite regime — nothing commutes, so POR must cost nothing:
// identical edge counts.
func TestPORReducesEdgesBenchFamilies(t *testing.T) {
	cases := []struct {
		name    string
		build   func() (*model.Execution, error)
		wantMin float64 // minimum off/on edge ratio
	}{
		{"barrier4", func() (*model.Execution, error) { return Barrier(4) }, 2},
		{"forkjoin4", func() (*model.Execution, error) { return ForkJoinTree(4) }, 2},
		{"prodcons2x2x2", func() (*model.Execution, error) { return ProducerConsumer(2, 2, 2) }, 2},
		{"pipeline6", func() (*model.Execution, error) { return Pipeline(6) }, 1},
		{"mutex4x3", func() (*model.Execution, error) { return Mutex(4, 3) }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			on, nOn := matrixEdges(t, x, false)
			off, nOff := matrixEdges(t, x, true)
			ratio := float64(off) / float64(on)
			t.Logf("%s: edges POR-on=%d POR-off=%d (%.2fx), nodes %d/%d", tc.name, on, off, ratio, nOn, nOff)
			if nOn != nOff {
				t.Errorf("POR-on expanded %d states, POR-off %d; sleep sets must not prune states", nOn, nOff)
			}
			if ratio < tc.wantMin {
				t.Errorf("edge ratio %.2fx, want >= %.0fx", ratio, tc.wantMin)
			}
		})
	}
}
