package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing. Every HTTP request gets a process-unique request ID
// minted by the instrument wrapper, echoed in the X-Request-Id response
// header, stamped on every response envelope, and attached to every
// structured log line the request produces — so an operator can join a
// client-reported envelope to the server's logs with one grep. Alongside
// the ID the tracer accumulates span-style phase timings (queue wait,
// plan, forward/backward sweeps, ...) that ride back to the client in the
// envelope's trace block: for a workload whose cost is NP-hard in the
// worst case, "where did my 30 seconds go" must be answerable per request,
// not just in aggregate.

// ridPrefix is this process's random request-id prefix; ridSeq the
// per-process sequence. IDs look like "r-9f3a2c-000042": unique within
// the process by sequence, across restarts by prefix.
var (
	ridPrefix = func() string {
		var b [3]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "r-local"
		}
		return "r-" + hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Int64
)

// newRequestID mints a process-unique request ID.
func newRequestID() string {
	return fmt.Sprintf("%s-%06d", ridPrefix, ridSeq.Add(1))
}

// Phase is one named span of a request's lifecycle, in milliseconds.
// Phases the engine reports: "decode" (the request body's JSON, including a
// trace the one-pass path decodes in place), "resolve" (parsing/running the
// program, or decoding a trace the body decode left raw, and hashing the
// execution), "plan" (polynomial cascade), "forward" and "backward" (the
// batch engine's two sweeps), "decide" / "detect" / "witness" for the
// non-matrix endpoints.
type Phase struct {
	// Name identifies the span.
	Name string `json:"name"`
	// Ms is the span's wall time in milliseconds.
	Ms float64 `json:"ms"`
}

// TraceInfo is the per-request trace block echoed in response envelopes.
type TraceInfo struct {
	// RequestID is the server-minted request ID; the same value is in the
	// X-Request-Id header and on every log line for this request.
	RequestID string `json:"requestId"`
	// Lane reports how admission control routed the request: "cache"
	// (served from the result cache, no job ran), "fast" (answered on the
	// request's own goroutine, because the polynomial planner decided
	// every pair and no exponential search was needed), or "heavy" (the
	// worker pool). Empty for requests that never touched admission
	// (health, metrics).
	Lane string `json:"lane,omitempty"`
	// Shed reports that load shedding degraded this request: the server
	// was under queue pressure, so the request's deadline was clamped to
	// the shed timeout and a partial anytime result (with a resumable
	// checkpoint) was served instead of waiting out the full analysis.
	Shed bool `json:"shed,omitempty"`
	// QueueWaitMs is the time the job spent admitted-but-not-running.
	QueueWaitMs float64 `json:"queueWaitMs"`
	// Phases are the request's span timings in the order they completed.
	Phases []Phase `json:"phases,omitempty"`
}

// Lane values reported in TraceInfo.Lane.
const (
	// LaneCache marks responses served from the result cache.
	LaneCache = "cache"
	// LaneFast marks planner-decided requests answered on their own
	// goroutine, without entering the worker pool's queue.
	LaneFast = "fast"
	// LaneHeavy marks requests served by the worker pool.
	LaneHeavy = "heavy"
)

// tracer carries one request's ID and accumulating trace block. It is
// created by instrument, travels via the request context into handlers
// and jobs, and is snapshotted into the response envelope. The mutex
// covers handler-goroutine vs worker-goroutine handoff (async jobs record
// phases after the submitting handler returned).
type tracer struct {
	id string

	mu        sync.Mutex
	lane      string
	shed      bool
	queueWait time.Duration
	phases    []Phase
	err       string
}

// phase records one completed span.
func (tr *tracer) phase(name string, d time.Duration) {
	tr.mu.Lock()
	tr.phases = append(tr.phases, Phase{Name: name, Ms: ms(d)})
	tr.mu.Unlock()
}

// timePhase runs fn and records its wall time under name.
func (tr *tracer) timePhase(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	tr.phase(name, time.Since(start))
	return err
}

// setLane records the admission-control routing decision.
func (tr *tracer) setLane(lane string) {
	tr.mu.Lock()
	tr.lane = lane
	tr.mu.Unlock()
}

// setShed marks the request as degraded by load shedding.
func (tr *tracer) setShed() {
	tr.mu.Lock()
	tr.shed = true
	tr.mu.Unlock()
}

// setQueueWait records the admitted-but-not-running span.
func (tr *tracer) setQueueWait(d time.Duration) {
	tr.mu.Lock()
	tr.queueWait = d
	tr.mu.Unlock()
}

// setErr records the error a failed job ended with.
func (tr *tracer) setErr(err error) {
	tr.mu.Lock()
	tr.err = err.Error()
	tr.mu.Unlock()
}

// info snapshots the trace block for the response envelope.
func (tr *tracer) info() *TraceInfo {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return &TraceInfo{
		RequestID:   tr.id,
		Lane:        tr.lane,
		Shed:        tr.shed,
		QueueWaitMs: ms(tr.queueWait),
		Phases:      append([]Phase(nil), tr.phases...),
	}
}

// logFields returns the trace's structured-log attributes (always led by
// the request ID, so log lines join to envelopes).
func (tr *tracer) logFields() []any {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	fields := []any{"rid", tr.id}
	if tr.lane != "" {
		fields = append(fields, "lane", tr.lane, "queueWaitMs", ms(tr.queueWait))
	}
	if tr.shed {
		fields = append(fields, "shed", true)
	}
	for _, p := range tr.phases {
		fields = append(fields, "phase_"+p.Name+"_ms", p.Ms)
	}
	if tr.err != "" {
		fields = append(fields, "err", tr.err)
	}
	return fields
}

// ms converts a duration to float milliseconds (the wire unit).
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// tracerKey keys the tracer in a request context.
type tracerKey struct{}

// withTracer attaches tr to ctx.
func withTracer(ctx context.Context, tr *tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, tr)
}

// tracerFrom recovers the request's tracer; a detached fallback (fresh ID,
// recorded nowhere) keeps callers nil-safe if a handler is mounted outside
// instrument.
func tracerFrom(ctx context.Context) *tracer {
	if tr, ok := ctx.Value(tracerKey{}).(*tracer); ok {
		return tr
	}
	return &tracer{id: newRequestID()}
}
