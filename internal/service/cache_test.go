package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"eventorder/internal/gen"
	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
	"eventorder/internal/traceio"
)

func testCache(budget int64) (*resultCache, *Registry) {
	m := NewRegistry()
	return newResultCache(budget, m), m
}

func TestCacheHitMissCounting(t *testing.T) {
	c, m := testCache(1 << 20)
	if _, ok := c.get("k1"); ok {
		t.Fatal("hit on empty cache")
	}
	c.put("k1", []byte("body"))
	got, ok := c.get("k1")
	if !ok || string(got) != "body" {
		t.Fatalf("get after put = %q, %v", got, ok)
	}
	if h, mi := m.Counter(MetricCacheHits).Value(), m.Counter(MetricCacheMisses).Value(); h != 1 || mi != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", h, mi)
	}
}

func TestCacheEvictsLRUUnderByteBudget(t *testing.T) {
	// Each entry costs len(key)+cap(body)+overhead = 2+8+cacheEntryOverhead
	// bytes; the budget fits 3.
	const entry = 2 + 8 + cacheEntryOverhead
	c, m := testCache(3 * entry)
	body := make([]byte, 8)
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), body)
	}
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3", c.len())
	}
	// Touch k0 so k1 becomes least recently used, then overflow.
	c.get("k0")
	c.put("k3", body)
	if _, ok := c.get("k1"); ok {
		t.Error("k1 survived eviction despite being LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if n := m.Counter(MetricCacheEvictions).Value(); n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
	if b := m.Gauge(MetricCacheBytes).Value(); b != 3*entry {
		t.Errorf("cache_bytes gauge = %d, want %d", b, 3*entry)
	}
	if n := m.Gauge(MetricCacheEntries).Value(); n != 3 {
		t.Errorf("cache_entries gauge = %d, want 3", n)
	}
}

// TestCacheBudgetBoundsHeap fills the cache with ten thousand small pair
// results, the entries whose fixed overhead outweighs their bytes, and
// requires the heap the cache retains to stay within its byte budget.
func TestCacheBudgetBoundsHeap(t *testing.T) {
	const budget = 1 << 20
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	c, _ := testCache(budget)
	for i := 0; i < 10000; i++ {
		body, err := json.Marshal(PairResult{Rel: "MHB", A: fmt.Sprintf("work%d", i%5), B: "collect", Verdict: VerdictTrue, Nodes: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		c.put(cacheKey(fmt.Sprintf("digest%d", i), "analyze"), body)
	}
	growth := heap() - before
	runtime.KeepAlive(c)
	if c.len() == 10000 {
		t.Fatal("budget never evicted; the test does not exercise it")
	}
	// Allocation-class rounding and the map's load vary a little around
	// the overhead constant; a tenth of slack absorbs that, while charging
	// only key and body bytes retains about twice the budget.
	if growth > budget+budget/10 {
		t.Errorf("cache of %d entries retains %d heap bytes, budget %d", c.len(), growth, budget)
	}
}

func TestCacheSkipsOversizedBodies(t *testing.T) {
	c, _ := testCache(16)
	c.put("big", bytes.Repeat([]byte("x"), 64))
	if c.len() != 0 {
		t.Errorf("oversized body cached (len=%d)", c.len())
	}
}

func TestCachePutIdempotent(t *testing.T) {
	c, _ := testCache(1 << 10)
	c.put("k", []byte("v"))
	c.put("k", []byte("v"))
	if c.len() != 1 {
		t.Errorf("duplicate put grew the cache to %d entries", c.len())
	}
}

// TestExecutionDigestIsContentAddressed: structurally identical executions
// hash equal; a different execution hashes different. The digest survives
// a trace round trip, so a program and its recorded trace share cache
// entries; every field the wire form carries moves it; and nil and empty
// lists and maps hash alike.
func TestExecutionDigestIsContentAddressed(t *testing.T) {
	a, err := gen.Mutex(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Mutex(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := gen.Mutex(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	da, db, do := executionDigest(a), executionDigest(b), executionDigest(other)
	if da != db {
		t.Errorf("identical executions digest differently: %s vs %s", da, db)
	}
	if da == do {
		t.Error("distinct executions share a digest")
	}
	if k1, k2 := cacheKey(da, "analyze"), cacheKey(da, "races"); k1 == k2 {
		t.Error("distinct descriptors share a cache key")
	}

	t.Run("round trip", func(t *testing.T) {
		xs, err := gen.Corpus()
		if err != nil {
			t.Fatal(err)
		}
		programs, err := filepath.Glob("../../testdata/*.evo")
		if err != nil || len(programs) == 0 {
			t.Fatalf("no testdata programs: %v", err)
		}
		for _, path := range programs {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			res, err := interp.RunAvoidingDeadlock(prog, 64, 1)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			xs = append(xs, res.X)
		}
		for i, x := range xs {
			y, err := traceio.LoadExecution(bytes.NewReader(executionJSON(t, x)))
			if err != nil {
				t.Fatalf("execution %d: %v", i, err)
			}
			if dx, dy := executionDigest(x), executionDigest(y); dx != dy {
				t.Errorf("execution %d: digest %s changes to %s across a trace round trip", i, dx, dy)
			}
		}
	})

	t.Run("one-field mutations", func(t *testing.T) {
		base := digestSample(t)
		saved := executionJSON(t, base)
		want := executionDigest(base)
		for _, m := range []struct {
			name   string
			mutate func(x *model.Execution)
		}{
			{"proc name", func(x *model.Execution) { x.Procs[1].Name = "other" }},
			{"proc parent", func(x *model.Execution) { x.Procs[1].Parent = 1 }},
			{"proc fork op", func(x *model.Execution) { x.Procs[1].ForkOp = 2 }},
			{"event label", func(x *model.Execution) { x.Events[0].Label = "z" }},
			{"event obj", func(x *model.Execution) { x.Events[3].Obj = "m" }},
			{"event kind", func(x *model.Execution) { x.Events[3].Kind = model.OpAcquire }},
			{"op stmt", func(x *model.Execution) { x.Ops[0].Stmt = "write y" }},
			{"op obj", func(x *model.Execution) { x.Ops[0].Obj = "y" }},
			{"string boundary", func(x *model.Execution) { x.Ops[0].Obj, x.Ops[0].Stmt = "xw", "rite x" }},
			{"sem init", func(x *model.Execution) { s := x.Sems["s"]; s.Init = 1; x.Sems["s"] = s }},
			{"sem binary", func(x *model.Execution) { s := x.Sems["m"]; s.Kind = model.SemCounting; x.Sems["m"] = s }},
			{"event variable posted", func(x *model.Execution) { x.EvInit["e"] = false }},
			{"event variable declared", func(x *model.Execution) { x.EvInit["f"] = false }},
			{"order", func(x *model.Execution) { x.Order[5], x.Order[6] = x.Order[6], x.Order[5] }},
		} {
			x, err := traceio.LoadExecution(bytes.NewReader(saved))
			if err != nil {
				t.Fatal(err)
			}
			if got := executionDigest(x); got != want {
				t.Fatalf("%s: reloaded sample digests %s, want %s", m.name, got, want)
			}
			m.mutate(x)
			if executionDigest(x) == want {
				t.Errorf("%s: mutation left the digest unchanged", m.name)
			}
		}
	})

	t.Run("nil and empty", func(t *testing.T) {
		b := model.NewBuilder()
		b.Proc("A0")
		x, err := b.BuildWithOrder(nil)
		if err != nil {
			t.Fatal(err)
		}
		empty := &model.Execution{
			Procs:  []model.Proc{{Name: "A0", Ops: []model.OpID{}, Parent: model.NoID, ForkOp: model.NoID}},
			Events: []model.Event{},
			Ops:    []model.Op{},
			Sems:   map[string]model.Semaphore{},
			EvInit: map[string]bool{},
			Order:  []model.OpID{},
		}
		none := &model.Execution{
			Procs: []model.Proc{{Name: "A0", Parent: model.NoID, ForkOp: model.NoID}},
		}
		d := executionDigest(x)
		if executionDigest(empty) != d || executionDigest(none) != d {
			t.Errorf("nil and empty lists and maps digest differently: built %s, empty %s, nil %s",
				d, executionDigest(empty), executionDigest(none))
		}
	})
}

// digestSample builds a small execution that uses every field the trace
// format carries: a fork and join, counting and binary semaphores, an
// initially posted event variable, labels, objects and statements.
func digestSample(t *testing.T) *model.Execution {
	t.Helper()
	b := model.NewBuilder()
	b.Sem("s", 0, model.SemCounting)
	b.Sem("m", 1, model.SemBinary)
	b.EventVar("e", true)
	main := b.Proc("main")
	main.Label("a").Write("x")
	child := main.Fork("child")
	child.Wait("e")
	child.V("s")
	main.P("s")
	main.Join("child")
	main.Label("b").Read("x")
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestHistogramSnapshotCumulative(t *testing.T) {
	m := NewRegistry()
	h := m.Histogram("t", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := m.Snapshot().Histograms["t"]
	if s.Count != 5 || s.Sum != 56.05 {
		t.Errorf("count=%d sum=%g, want 5/56.05", s.Count, s.Sum)
	}
	want := map[string]int64{"le_0.1": 1, "le_1": 3, "le_10": 4, "le_inf": 5}
	for k, v := range want {
		if s.Buckets[k] != v {
			t.Errorf("bucket %s = %d, want %d", k, s.Buckets[k], v)
		}
	}
}

func TestRegistryMarshalJSON(t *testing.T) {
	m := NewRegistry()
	m.Counter("c").Add(2)
	m.Gauge("g").Set(-1)
	b, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"c":2`, `"g":-1`} {
		if !strings.Contains(string(b), frag) {
			t.Errorf("marshaled registry missing %s: %s", frag, b)
		}
	}
}
