package core

import (
	"context"
	"testing"
)

// TestMemoHitZeroAlloc is the allocation regression gate for the hot memo
// path: once the completion memo is warm, CanComplete is a packed-key
// derivation plus one open-addressing lookup, and must not allocate at
// all. A nonzero result here means a heap allocation crept back into
// packKey, the arena slots, or the table lookup.
func TestMemoHitZeroAlloc(t *testing.T) {
	for _, name := range []string{"barrier.evo", "handshake.evo"} {
		t.Run(name, func(t *testing.T) {
			a := mustAnalyzer(t, loadTrace(t, name), Options{})
			ok, err := a.CanComplete() // warm the completion memo
			if err != nil || !ok {
				t.Fatalf("warmup CanComplete = (%v, %v)", ok, err)
			}
			avg := testing.AllocsPerRun(200, func() {
				ok, err := a.CanComplete()
				if err != nil || !ok {
					t.Fatalf("warm CanComplete = (%v, %v)", ok, err)
				}
			})
			if avg != 0 {
				t.Fatalf("warm CanComplete allocates %v/op; the memo-hit path must be allocation-free", avg)
			}
		})
	}
}

// TestColdSearchArenaReuse pins the other half of the tentpole: even a
// cold full search allocates only O(1) times (memo-table growth), not per
// node — the per-depth key and enabled-list arenas absorb what used to be
// a string key and an enabled slice per expanded state.
func TestColdSearchArenaReuse(t *testing.T) {
	a := mustAnalyzer(t, loadTrace(t, "barrier.evo"), Options{})
	ok, err := a.CanComplete()
	if err != nil || !ok {
		t.Fatalf("CanComplete = (%v, %v)", ok, err)
	}
	st := a.Stats()
	if st.Nodes == 0 || st.CompleteMemo == 0 {
		t.Fatalf("cold search expanded %d nodes, memoized %d states; expected nonzero work", st.Nodes, st.CompleteMemo)
	}
	// Allocations per cold search must be bounded by table growth, not by
	// node count: re-run cold searches and require allocs/op well under
	// one per expanded node.
	nodes := st.Nodes
	avg := testing.AllocsPerRun(20, func() {
		a.DropMemo()
		if ok, err := a.CanComplete(); err != nil || !ok {
			t.Fatalf("cold CanComplete = (%v, %v)", ok, err)
		}
	})
	if limit := float64(nodes) / 4; avg > limit {
		t.Fatalf("cold search allocates %v/run over %d nodes (limit %v): per-node allocation is back", avg, nodes, limit)
	}
}

// TestMatrixAllocs bounds the allocations of a fresh matrix: core.New
// plus a Matrix of all six relations, on a small and a large testdata
// program. The bounds are the counts measured with Go 1.24 (94 and 133)
// plus a little headroom. Both passes run over cells, which never grow,
// and each result relation costs three allocations whatever its size, so
// burst.evo's 6,560 states cost about 0.02 allocations each.
func TestMatrixAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		bound float64
	}{{"handshake.evo", 98}, {"burst.evo", 138}} {
		x := loadTrace(t, c.name)
		allocs := testing.AllocsPerRun(20, func() {
			a, err := New(x, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Matrix(context.Background(), nil, MatrixOpts{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: core.New plus Matrix made %.0f allocations", c.name, allocs)
		if allocs > c.bound {
			t.Errorf("%s: core.New plus Matrix made %.0f allocations, bound %.0f", c.name, allocs, c.bound)
		}
	}
}

// BenchmarkMemoHitCanComplete measures the warm (pure memo-hit) decision
// path; run with -benchmem, the allocs/op column must read 0.
func BenchmarkMemoHitCanComplete(b *testing.B) {
	for _, name := range []string{"barrier.evo", "dining2.evo"} {
		b.Run(name, func(b *testing.B) {
			a := mustAnalyzerB(b, name)
			if ok, err := a.CanComplete(); err != nil || !ok {
				b.Fatalf("warmup CanComplete = (%v, %v)", ok, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, _ := a.CanComplete(); !ok {
					b.Fatal("warm CanComplete flipped to false")
				}
			}
		})
	}
}

// BenchmarkColdCanComplete measures the cold full-search path (memo
// dropped every iteration): the allocation count stays flat as the node
// count grows because the search runs out of preallocated arenas.
func BenchmarkColdCanComplete(b *testing.B) {
	for _, name := range []string{"barrier.evo", "dining2.evo"} {
		b.Run(name, func(b *testing.B) {
			a := mustAnalyzerB(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.DropMemo()
				if ok, _ := a.CanComplete(); !ok {
					b.Fatal("cold CanComplete = false")
				}
			}
		})
	}
}

// mustAnalyzerB builds an analyzer for a testdata trace inside a benchmark.
func mustAnalyzerB(b *testing.B, name string) *Analyzer {
	b.Helper()
	x := loadTrace(b, name)
	a, err := New(x, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return a
}
