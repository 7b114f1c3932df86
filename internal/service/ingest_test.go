package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"eventorder/internal/gen"
	"eventorder/internal/model"
	"eventorder/internal/traceio"
)

// compactTrace is x as a request's "execution" field carries it: the
// SaveExecution form compacted, as json.Marshal does to a json.RawMessage.
func compactTrace(t testing.TB, x *model.Execution) []byte {
	t.Helper()
	var saved, compact bytes.Buffer
	if err := traceio.SaveExecution(&saved, x); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, saved.Bytes()); err != nil {
		t.Fatal(err)
	}
	return compact.Bytes()
}

// ingestTraces are the two traces of the pair-interactive benchmark
// workload, compacted.
func ingestTraces(t testing.TB) map[string][]byte {
	t.Helper()
	ring, err := gen.Barrier(5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := gen.ForkJoinTree(5)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"barrier-ring5": compactTrace(t, ring), "forkjoin5": compactTrace(t, tree)}
}

// Allocation bounds for TestIngestAllocs: the counts measured on the
// compact barrier-ring5 trace with Go 1.24 (50, 5 and 65) plus a little
// headroom. The one-pass decode replaced one that made 303 allocations,
// and the field-by-field digest one that made 114.
const (
	loadAllocBound   = 60
	digestAllocBound = 7
	bodyAllocBound   = 75
)

// TestIngestAllocs bounds the allocations of the fixed costs every trace
// request pays before analysis: decoding the trace, hashing the execution,
// and the two together with the request body around them (decodeRequest
// then resolveExecution on the barrier-ring5 analyze body). Allocation
// counts are deterministic, unlike wall time.
func TestIngestAllocs(t *testing.T) {
	body := traceBodies(t)["analyze/barrier-ring5"]
	request := testing.AllocsPerRun(50, func() { decodeAndResolve(t, body) })
	t.Logf("barrier-ring5 analyze body (%d B): decode and resolve %.0f allocs", len(body), request)
	if request > bodyAllocBound {
		t.Errorf("decoding and resolving the request made %.0f allocations, bound %d", request, bodyAllocBound)
	}

	src := ingestTraces(t)["barrier-ring5"]
	x, err := traceio.LoadExecution(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	load := testing.AllocsPerRun(50, func() {
		if _, err := traceio.LoadExecution(bytes.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	})
	digest := testing.AllocsPerRun(50, func() { executionDigest(x) })
	t.Logf("barrier-ring5 (%d B): LoadExecution %.0f allocs, executionDigest %.0f allocs", len(src), load, digest)
	if load > loadAllocBound {
		t.Errorf("LoadExecution made %.0f allocations, bound %d", load, loadAllocBound)
	}
	if digest > digestAllocBound {
		t.Errorf("executionDigest made %.0f allocations, bound %d", digest, digestAllocBound)
	}
}

// pairRequestAllocRows are TestPairRequestAllocs' requests, CHB of the
// trace's first and last labels on the analyze or the witness endpoint,
// each bounded by the count measured with Go 1.24 plus a little headroom:
// 350, 255, 261 and 346. Before pair requests read the closure, detected
// symmetry only when they searched and wrote their bodies in one pass,
// the counts were 348, 305, 480 and 515. For the barrier-ring5 pair, when
// a synchronous request still logged a second line for its job, the
// count was 389, and when encoding/json wrote the envelope, 349 to 350.
var pairRequestAllocRows = []struct {
	name, trace, endpoint string
	bound                 float64
}{
	{"barrier-ring5 pair", "barrier-ring5", "/v1/analyze", 352},
	{"forkjoin5 pair", "forkjoin5", "/v1/analyze", 258},
	{"forkjoin5 witness", "forkjoin5", "/v1/witness", 264},
	{"barrier-ring5 witness", "barrier-ring5", "/v1/witness", 349},
}

// TestPairRequestAllocs bounds the allocations of whole synchronous pair
// and witness requests through the handler: decode, resolve, the
// analyzer and its closure, the pair query or the search, encode and the
// request's log line, with the result cache unable to hold the result, so
// every request is fresh. forkjoin5 is certified, so its queries read the
// closure; barrier-ring5's search.
func TestPairRequestAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector changes allocation counts: sync.Pool drops items at random")
	}
	traces := ingestTraces(t)
	// A one-byte budget caches nothing: every body is larger.
	srv, err := New(Config{Workers: 1, CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	for _, row := range pairRequestAllocRows {
		t.Run(row.name, func(t *testing.T) {
			x, err := traceio.LoadExecution(bytes.NewReader(traces[row.trace]))
			if err != nil {
				t.Fatal(err)
			}
			labels := x.Labels()
			body, err := json.Marshal(WitnessRequest{
				ExecutionSource: ExecutionSource{Execution: compactTrace(t, x)},
				Rel:             "CHB", A: labels[0], B: labels[len(labels)-1],
			})
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, row.endpoint, bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					t.Fatalf("status %d: %s", w.Code, w.Body)
				}
			})
			t.Logf("CHB(%s, %s): %.0f allocs per request", labels[0], labels[len(labels)-1], allocs)
			if allocs > row.bound {
				t.Errorf("the request made %.0f allocations, bound %.0f", allocs, row.bound)
			}
		})
	}
}

// matrixRequestAllocBounds bound TestMatrixRequestAllocs: the counts
// measured with Go 1.24 (463 to 464 and 674 to 675) plus a little
// headroom. Encoding the body with encoding/json, which built a [][2]int
// per relation and formatted every event name with fmt, made them 789
// and 1,292; planning with HMW, vector clocks and an endpoint DAG, 648
// and 1,093; building a second analyzer for the job, and searching
// burst.evo, which the completeness certificate now decides, 521 and
// 797; detecting symmetry on burst.evo, which does not search, and
// building the plan_pairs_<tier> and queue_wait_seconds_<lane> metric
// names per request, 467 to 469 and 714.
var matrixRequestAllocBounds = map[string]float64{"figure1.evo": 467, "burst.evo": 678}

// TestMatrixRequestAllocs bounds the allocations of a whole synchronous
// all-six matrix request for a program through the handler: decode, the
// interpreter run, the digest, the plan, the matrix search, the response
// encode and the request's log line, with the result cache unable to hold
// the result, so every request is fresh.
func TestMatrixRequestAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector changes allocation counts: sync.Pool drops items at random")
	}
	// A one-byte budget caches nothing: every body is larger.
	srv, err := New(Config{Workers: 1, CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	for name, bound := range matrixRequestAllocBounds {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(AnalyzeRequest{ExecutionSource: ExecutionSource{Program: string(src)}, All: true})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", name, w.Code, w.Body)
			}
		})
		t.Logf("%s: %.0f allocs per matrix request", name, allocs)
		if allocs > bound {
			t.Errorf("%s: a matrix request made %.0f allocations, bound %.0f", name, allocs, bound)
		}
	}
}

// decodeAndResolve is a trace request's ingestion: the body decode, then
// resolveExecution.
func decodeAndResolve(t testing.TB, body []byte) {
	var req AnalyzeRequest
	if _, err := decodeRequest(body, &req); err != nil {
		t.Fatal(err)
	}
	var err error
	if ingestX, ingestDigest, err = resolveExecution(&req.ExecutionSource); err != nil {
		t.Fatal(err)
	}
}

// Sinks keep BenchmarkIngest's results alive.
var (
	ingestX      *model.Execution
	ingestDigest string
)

// BenchmarkIngest times trace decoding and execution hashing on the
// benchmark workload's traces.
func BenchmarkIngest(b *testing.B) {
	for name, src := range ingestTraces(b) {
		x, err := traceio.LoadExecution(bytes.NewReader(src))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("load/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ingestX, err = traceio.LoadExecution(bytes.NewReader(src)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("digest/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ingestDigest = executionDigest(x)
			}
		})
	}
	for name, body := range traceBodies(b) {
		b.Run("request/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decodeAndResolve(b, body)
			}
		})
	}
}
