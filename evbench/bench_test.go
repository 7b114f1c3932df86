package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"eventorder/internal/core"
	"eventorder/internal/plan"
)

// repoRoot holds testdata/*.evo for the corpus idioms.
const repoRoot = ".."

func testWorkload(t *testing.T, name string, seed int64) *workload {
	t.Helper()
	w, err := newWorkload(name, seed, repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRenamedVariantsAgree checks the property the stream relies on: a
// renamed variant of every base has a new digest but the same verdicts
// and the same number of explored states on the served path.
func TestRenamedVariantsAgree(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		w := testWorkload(t, name, 5)
		for _, b := range w.bases {
			want, err := plan.Analyze(ctx, b.x, core.AllRelKinds, core.Options{}, core.MatrixOpts{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, b.name, err)
			}
			d0, err := digest(b.x)
			if err != nil {
				t.Fatal(err)
			}
			for _, prefix := range []string{"a1_", "zz9_"} {
				x, err := b.variant(prefix)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", name, b.name, prefix, err)
				}
				if d, _ := digest(x); d == d0 {
					t.Errorf("%s/%s %s: renaming kept the digest", name, b.name, prefix)
				}
				got, err := plan.Analyze(ctx, x, core.AllRelKinds, core.Options{}, core.MatrixOpts{})
				if err != nil {
					t.Fatalf("%s/%s %s: %v", name, b.name, prefix, err)
				}
				if got.Stats.Nodes != want.Stats.Nodes {
					t.Errorf("%s/%s %s: core.states %d, base %d", name, b.name, prefix, got.Stats.Nodes, want.Stats.Nodes)
				}
				for _, kind := range core.AllRelKinds {
					if !slices.Equal(relPairs(got.Relations[kind]), relPairs(want.Relations[kind])) {
						t.Errorf("%s/%s %s: %s differs from the base", name, b.name, prefix, kind)
					}
				}
			}
		}
	}
}

func streamBodies(t *testing.T, w *workload, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := range n {
		r, err := w.request(i)
		if err != nil {
			t.Fatalf("%s request %d: %v", w.name, i, err)
		}
		out = append(out, r.body)
	}
	return out
}

// TestStreamIsSeeded checks that a seed fixes the request stream byte for
// byte and that another seed changes it.
func TestStreamIsSeeded(t *testing.T) {
	const n = 48
	for _, name := range workloadNames {
		a := streamBodies(t, testWorkload(t, name, 7), n)
		b := streamBodies(t, testWorkload(t, name, 7), n)
		c := streamBodies(t, testWorkload(t, name, 8), n)
		if !slices.EqualFunc(a, b, bytes.Equal) {
			t.Errorf("%s: the same seed gave different streams", name)
		}
		if slices.EqualFunc(a, c, bytes.Equal) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
		seen := map[string]bool{}
		repeats := 0
		for _, body := range a {
			if seen[string(body)] {
				repeats++
			}
			seen[string(body)] = true
		}
		if name == wlPair && repeats == 0 {
			t.Errorf("%s: no request repeats an earlier one", name)
		}
		if name != wlPair && repeats != 0 {
			t.Errorf("%s: %d requests repeat an earlier one", name, repeats)
		}
	}
}

// TestTracedCountsRepeat checks that two traced replays of the same seed
// give identical search counts.
func TestTracedCountsRepeat(t *testing.T) {
	ctx := context.Background()
	samples := map[string]int{wlCorpus: 40, wlHeavy: 4, wlPair: 60}
	exact := []string{"core.states", "core.edges", "core.pair_states", "plan.decided_frac", "plan.zero_residue_frac", "interp.steps"}
	for _, name := range workloadNames {
		var runs []map[string]float64
		for range 2 {
			w := testWorkload(t, name, 11)
			if err := w.computeExpectations(ctx); err != nil {
				t.Fatal(err)
			}
			tr, err := tracedReplay(ctx, w, samples[name])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runs = append(runs, tr.layerMetrics())
		}
		for _, m := range exact {
			if runs[0][m] != runs[1][m] {
				t.Errorf("%s: %s %v then %v", name, m, runs[0][m], runs[1][m])
			}
		}
	}
}

// TestCheckCatchesWrongVerdicts feeds the response check a matrix with one
// pair missing and a flipped pair verdict.
func TestCheckCatchesWrongVerdicts(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, wlPair, 3)
	if err := w.computeExpectations(ctx); err != nil {
		t.Fatal(err)
	}
	b := w.bases[0]
	rels := maps.Clone(b.pairs)
	for kind, pairs := range rels {
		if len(pairs) > 0 {
			rels[kind] = pairs[1:]
			break
		}
	}
	res, err := json.Marshal(matrixResult{Complete: true, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	r := &request{base: b, kind: kindMatrix}
	if err := checkResult(r, res); !errors.Is(err, errMismatch) {
		t.Errorf("matrix with a missing pair: got %v, want a mismatch", err)
	}
	r = &request{base: b, kind: kindPair, rel: core.RelMHB, a: 0, b: 1}
	wrong := core.VerdictOf(!b.expect[core.RelMHB].Has(0, 1))
	res, err = json.Marshal(verdictResult{Verdict: wrong})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(r, res); !errors.Is(err, errMismatch) {
		t.Errorf("flipped pair verdict: got %v, want a mismatch", err)
	}
}

// openFDs counts the process's open file descriptors, which include every
// listener and connection.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// settled waits until the goroutine and descriptor counts fall back to
// their baselines.
func settled(t *testing.T, goroutines, fds int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs(t)
		if g <= goroutines && f <= fds {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after the run: %d goroutines (was %d), %d open descriptors (was %d)\n%s",
				g, goroutines, f, fds, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunLeavesNothingBehind makes a short traced run and an interrupted
// one, and checks that no server goroutine, listener, connection or
// temporary file survives either.
func TestRunLeavesNothingBehind(t *testing.T) {
	out := t.TempDir()
	// One boot first, so the runtime's network poller, which stays open,
	// is part of the baseline.
	if _, err := bootTimes(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	o := options{workload: wlPair, seed: 3, seconds: 0.3, trace: true, root: repoRoot, out: out}
	rep, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.result.Correct || rep.result.Attempted == 0 {
		t.Errorf("short run: %+v (first error %v)", rep.result, rep.firstErr)
	}
	settled(t, goroutines, fds)

	// Cancel in the middle of the timed window: after the cache fill
	// (about 3.5 s over one connection) and the warm-up (2 s).
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(8*time.Second, cancel)
	o.seconds, o.seed = 30, 4
	if _, err := run(ctx, o); !errors.Is(err, context.Canceled) {
		t.Errorf("interrupted run: got %v, want context.Canceled", err)
	}
	cancel()
	settled(t, goroutines, fds)

	err = filepath.WalkDir(out, func(path string, d os.DirEntry, err error) error {
		if err == nil && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("temporary file left behind: %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOutputContract checks the final line's shape for both kinds of run,
// and that it reports exactly the metrics BENCHMARK.json declares, with
// the declared units.
func TestOutputContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name, Unit string
	}
	var bench struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		o := options{workload: wlPair, seed: 9, seconds: 0.2, trace: trace, root: repoRoot}
		rep, err := run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		lines := rep.lines()
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		keys := sortedKeys(last)
		if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("trace=%t: keys %v", trace, keys)
		}
		decl := bench.EndToEnd
		if trace {
			decl = bench.PerLayer
		}
		var want []string
		for _, d := range decl {
			want = append(want, d.Name)
			if got := rep.result.Metrics[d.Name].Unit; got != d.Unit {
				t.Errorf("trace=%t: %s in %q, BENCHMARK.json says %q", trace, d.Name, got, d.Unit)
			}
		}
		slices.Sort(want)
		if got := sortedKeys(rep.result.Metrics); !slices.Equal(got, want) {
			t.Errorf("trace=%t: metrics %v, BENCHMARK.json declares %v", trace, got, want)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
