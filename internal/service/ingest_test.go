package service

import (
	"bytes"
	"encoding/json"
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
