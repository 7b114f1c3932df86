package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"eventorder/internal/core"
	"eventorder/internal/gen"
	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
	"eventorder/internal/traceio"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, ts
}

// rawBody is a request body postJSON sends as it is.
type rawBody string

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if raw, ok := body.(rawBody); ok {
		b, err = []byte(raw), nil
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func figure1Program(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/figure1.evo")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func executionJSON(t *testing.T, x *model.Execution) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := traceio.SaveExecution(&buf, x); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeEnvelope(t *testing.T, body []byte) Envelope {
	t.Helper()
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("bad envelope %s: %v", body, err)
	}
	return env
}

// TestAnalyzeFigure1Pair covers the acceptance path: posting the paper's
// Figure 1 program yields MHB(lp, rp) = true — the shared-data dependence
// orders the two posts — and the identical repeat is served from cache.
func TestAnalyzeFigure1Pair(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	req := map[string]any{"program": figure1Program(t), "rel": "mhb", "a": "lp", "b": "rp"}

	resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	env := decodeEnvelope(t, body)
	if env.Cached {
		t.Error("first request claims cached")
	}
	var pair PairResult
	if err := json.Unmarshal(env.Result, &pair); err != nil {
		t.Fatal(err)
	}
	if pair.Verdict != VerdictTrue || pair.Rel != "MHB" {
		t.Errorf("lp MHB rp = %v (rel %q), want true", pair.Verdict, pair.Rel)
	}
	if env.SchemaVersion != SchemaVersion {
		t.Errorf("schemaVersion = %d, want %d", env.SchemaVersion, SchemaVersion)
	}

	// Figure 1's ordering is F3's X dependence, which the engine's
	// structural pre-check decides without searching; whether one critical
	// section can precede the other depends on which V each P takes, so
	// the search decides it, and the result reports its effort.
	resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"program": readTestdataProgram(t, "singlesem.evo"), "rel": "CHB", "a": "csa", "b": "csb",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("singlesem status %d: %s", resp.StatusCode, body)
	}
	var searched PairResult
	if err := json.Unmarshal(decodeEnvelope(t, body).Result, &searched); err != nil {
		t.Fatal(err)
	}
	if searched.Verdict != VerdictTrue || searched.Nodes <= 0 {
		t.Errorf("singlesem csa CHB csb = %+v, want verdict true with search effort reported", searched)
	}

	resp, body = postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, body)
	}
	env2 := decodeEnvelope(t, body)
	if !env2.Cached {
		t.Error("identical repeat not served from cache")
	}
	if !bytes.Equal(env.Result, env2.Result) {
		t.Errorf("cached result differs:\nfirst:  %s\nsecond: %s", env.Result, env2.Result)
	}
	if hits := srv.Metrics().Counter(MetricCacheHits).Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

// TestCacheContentAddressing submits the same execution twice in different
// representations — once as a program (run to a trace under the default
// seed) and once as that exact serialized trace — and requires the second
// to hit the cache: the key is the execution's content, not the request
// bytes.
func TestCacheContentAddressing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	prog := figure1Program(t)
	parsed, err := lang.Parse(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.RunAvoidingDeadlock(parsed, 64, 1)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": prog, "rel": "MHB", "a": "lp", "b": "rp"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("program submit: status %d: %s", resp.StatusCode, body)
	}
	if decodeEnvelope(t, body).Cached {
		t.Fatal("first submission cached")
	}

	resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"execution": executionJSON(t, res.X), "rel": "MHB", "a": "lp", "b": "rp",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace submit: status %d: %s", resp.StatusCode, body)
	}
	if !decodeEnvelope(t, body).Cached {
		t.Error("trace submission of the same execution missed the cache")
	}
}

// TestEventFreeProgram: a program with no events runs to an execution with
// no ops and no order, which is valid. Whole-execution queries answer 200
// and a pair query answers 400 for its missing labels.
func TestEventFreeProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const prog = "proc A0 {}"
	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/analyze", map[string]any{"program": prog, "all": true}},
		{"/v1/races", map[string]any{"program": prog}},
	} {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200: %s", c.path, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": prog, "rel": "MHB", "a": "a", "b": "b"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "no event labeled") {
		t.Errorf("pair query: status %d, want 400 naming the missing label: %s", resp.StatusCode, body)
	}
}

// matrixFromResponse normalizes a MatrixResult's pairs for comparison.
func matrixFromResponse(m MatrixResult, rel string) [][2]int {
	pairs := append([][2]int(nil), m.Relations[rel]...)
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// TestMatrixMatchesDirectCore requires the served full six-relation matrix
// to equal a direct core computation on the same execution.
func TestMatrixMatchesDirectCore(t *testing.T) {
	x, err := gen.Mutex(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"execution": executionJSON(t, x), "all": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var m MatrixResult
	if err := json.Unmarshal(decodeEnvelope(t, body).Result, &m); err != nil {
		t.Fatal(err)
	}

	an, err := core.New(x, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := an.AllRelations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Relations) != len(core.AllRelKinds) {
		t.Fatalf("served %d relations, want %d", len(m.Relations), len(core.AllRelKinds))
	}
	for kind, rel := range want {
		wantPairs := [][2]int{}
		for _, p := range rel.Pairs() {
			wantPairs = append(wantPairs, [2]int{int(p[0]), int(p[1])})
		}
		sort.Slice(wantPairs, func(i, j int) bool {
			if wantPairs[i][0] != wantPairs[j][0] {
				return wantPairs[i][0] < wantPairs[j][0]
			}
			return wantPairs[i][1] < wantPairs[j][1]
		})
		got := matrixFromResponse(m, kind.String())
		if fmt.Sprint(got) != fmt.Sprint(wantPairs) {
			t.Errorf("%v: served %v, direct core %v", kind, got, wantPairs)
		}
	}
	for i := 0; i < x.NumEvents(); i++ {
		if m.Events[i] != x.EventName(model.EventID(i)) {
			t.Errorf("event %d named %q, want %q", i, m.Events[i], x.EventName(model.EventID(i)))
		}
	}
}

// TestAnalyzeWorkersAndBudgetKnobs covers the matrix-path request knobs:
// an out-of-range budget is clamped by core.MatrixOpts.Normalize rather
// than rejected (the knob is a hint, not semantics) and served from the
// cache (budget is not part of the key), and a body that still carries
// the removed workers knob is a 400 from the strict decoder.
func TestAnalyzeWorkersAndBudgetKnobs(t *testing.T) {
	x, err := gen.Mutex(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1})
	exec := executionJSON(t, x)

	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"execution": exec, "all": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default: status %d: %s", resp.StatusCode, body)
	}
	base := decodeEnvelope(t, body)

	resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{"execution": exec, "all": true, "workers": 2})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "workers") {
		t.Errorf("workers: status %d, want 400 naming the field: %s", resp.StatusCode, body)
	}

	// An out-of-range budget is clamped, not rejected; the result is
	// served from the cache since budget is not part of the key.
	for _, clamped := range []map[string]any{
		{"execution": exec, "all": true, "budget": -5},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/analyze", clamped)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d, want 200: %s", clamped, resp.StatusCode, body)
		}
		env := decodeEnvelope(t, body)
		if !env.Cached {
			t.Errorf("%v: knob-only variation missed the cache", clamped)
		}
		if !bytes.Equal(base.Result, env.Result) {
			t.Errorf("%v: result differs from default:\n%s\nvs\n%s", clamped, env.Result, base.Result)
		}
	}

	// A tiny budget on an uncached query yields an anytime partial: 200
	// with "complete": false, a cause of "budget", and a checkpoint.
	resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"execution": exec, "all": true, "budget": 1, "ignoreData": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget=1: status %d, want 200 partial: %s", resp.StatusCode, body)
	}
	var m MatrixResult
	if err := json.Unmarshal(decodeEnvelope(t, body).Result, &m); err != nil {
		t.Fatal(err)
	}
	if m.Complete {
		t.Errorf("budget=1 matrix claims to be complete: %s", body)
	}
	if m.Cause != "budget" {
		t.Errorf("cause = %q, want \"budget\"", m.Cause)
	}
	if m.Checkpoint == nil {
		t.Error("partial matrix carries no checkpoint")
	}
	if n := srv.Metrics().Counter(MetricAnalyzePartial).Value(); n < 1 {
		t.Errorf("analyze_partial = %d, want ≥ 1", n)
	}
}

// TestAsyncSubmitPoll exercises the job queue's async path: submit,
// poll until done, and check the matrix against direct computation.
func TestAsyncSubmitPoll(t *testing.T) {
	x, err := gen.Pipeline(3)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"execution": executionJSON(t, x), "rel": "MHB", "all": true, "async": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.ID == "" {
		t.Fatalf("no job id in %s", body)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+jr.ID, &jr)
		if jr.Status == JobDone || jr.Status == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", jr.ID, jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jr.Status != JobDone {
		t.Fatalf("job failed: %s", jr.Error)
	}
	var m MatrixResult
	if err := json.Unmarshal(jr.Result, &m); err != nil {
		t.Fatal(err)
	}
	an, err := core.New(x, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := an.Relation(context.Background(), core.RelMHB)
	if err != nil {
		t.Fatal(err)
	}
	got := matrixFromResponse(m, "MHB")
	if len(got) != len(want.Pairs()) {
		t.Errorf("async MHB matrix has %d pairs, direct core %d", len(got), len(want.Pairs()))
	}

	// The async result must now satisfy synchronous requests from cache.
	resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"execution": executionJSON(t, x), "rel": "MHB", "all": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !decodeEnvelope(t, body).Cached {
		t.Error("sync request after async completion missed the cache")
	}
}

// waitForIdle polls until no job is queued or running.
func waitForIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if srv.Metrics().Gauge(MetricQueueDepth).Value() == 0 &&
			srv.Metrics().Gauge(MetricJobsRunning).Value() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never went idle: depth=%d running=%d",
				srv.Metrics().Gauge(MetricQueueDepth).Value(),
				srv.Metrics().Gauge(MetricJobsRunning).Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeadlinePartialFreesWorker posts a large instance with a 1ms
// deadline: the request must answer 200 with a partial anytime result
// (v1 answered 504 here), the interrupted search must actually stop
// (queue depth and running gauges return to 0), and the freed worker must
// serve the next request. Resuming from the partial's checkpoint with no
// deadline must then complete the analysis.
func TestDeadlinePartialFreesWorker(t *testing.T) {
	// Barrier has a genuinely large reachable state space, so even the
	// batch matrix engine needs hundreds of milliseconds — the per-pair
	// engine's hard mutex instances complete in microseconds there.
	big, err := gen.Barrier(7)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"execution": executionJSON(t, big), "all": true, "timeoutMs": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 partial: %s", resp.StatusCode, body)
	}
	var partial MatrixResult
	if err := json.Unmarshal(decodeEnvelope(t, body).Result, &partial); err != nil {
		t.Fatal(err)
	}
	if partial.Complete {
		t.Fatal("1ms-deadline matrix claims to be complete")
	}
	if partial.Checkpoint == nil {
		t.Fatal("partial matrix carries no checkpoint")
	}
	if partial.Cause != "deadline" && partial.Cause != "canceled" {
		t.Errorf("cause = %q, want deadline or canceled", partial.Cause)
	}
	waitForIdle(t, srv)
	if n := srv.Metrics().Counter(MetricAnalyzePartial).Value(); n < 1 {
		t.Errorf("analyze_partial = %d, want ≥ 1", n)
	}

	// The single worker must be free for new work.
	resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"program": figure1Program(t), "rel": "MHB", "a": "lp", "b": "rp",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-deadline request: status %d: %s", resp.StatusCode, body)
	}

	// Continuing from the checkpoint without a deadline finishes the job.
	resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"execution": executionJSON(t, big), "all": true, "resume": partial.Checkpoint,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d: %s", resp.StatusCode, body)
	}
	env := decodeEnvelope(t, body)
	if env.Cached {
		t.Error("resume request was served from cache")
	}
	var full MatrixResult
	if err := json.Unmarshal(env.Result, &full); err != nil {
		t.Fatal(err)
	}
	if !full.Complete {
		t.Fatalf("resumed matrix still incomplete: %d/%d pairs", full.DecidedPairs, full.TotalPairs)
	}
	if full.DecidedPairs != full.TotalPairs {
		t.Errorf("complete matrix decided %d of %d pairs", full.DecidedPairs, full.TotalPairs)
	}
	if n := srv.Metrics().Counter(MetricAnalyzeResumed).Value(); n < 1 {
		t.Errorf("analyze_resumed = %d, want ≥ 1", n)
	}

	// The verdicts the partial decided must agree with the full analysis.
	for rel, pairs := range partial.Relations {
		fullSet := map[[2]int]bool{}
		for _, p := range full.Relations[rel] {
			fullSet[p] = true
		}
		for _, p := range pairs {
			if !fullSet[p] {
				t.Errorf("partial decided %s%v, absent from full analysis", rel, p)
			}
		}
	}
}

// TestGracefulShutdownDrain starts a slow job, begins shutdown, and checks
// that (1) new submissions are rejected with 503, (2) the in-flight job
// completes with 200, (3) Shutdown returns once drained.
func TestGracefulShutdownDrain(t *testing.T) {
	slow, err := gen.Barrier(6)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		b, _ := json.Marshal(map[string]any{"execution": executionJSON(t, slow), "all": true})
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(b))
		if err != nil {
			inflight <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		inflight <- result{status: resp.StatusCode, body: buf.Bytes()}
	}()

	// Wait until the job is actually running.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Gauge(MetricJobsRunning).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// New submissions during the drain must be rejected with 503.
	rejected := false
	for i := 0; i < 100; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
			"program": figure1Program(t), "rel": "MHB", "a": "lp", "b": "rp",
		})
		if resp.StatusCode == http.StatusServiceUnavailable {
			rejected = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !rejected {
		t.Error("no 503 for submissions during drain")
	}

	res := <-inflight
	if res.status != http.StatusOK {
		t.Errorf("in-flight job during drain: status %d: %s", res.status, res.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if n := srv.Metrics().Counter(MetricJobsRejected).Value(); n < 1 {
		t.Errorf("jobs_rejected = %d, want ≥ 1", n)
	}
}

// TestQueueFullRejects fills the single-slot queue behind a busy worker
// and requires admission control to answer 429 with a Retry-After hint.
// The fast lane is disabled so every submission contends for the one
// heavy queue slot.
func TestQueueFullRejects(t *testing.T) {
	slow, err := gen.Barrier(6)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DisableFastLane: true})
	slowReq := func(seed int) map[string]any {
		return map[string]any{
			"execution": executionJSON(t, slow), "all": true, "async": true,
			"timeoutMs": 10000, "ignoreData": seed%2 == 1, // vary the key to dodge the cache
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/analyze", slowReq(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d: %s", resp.StatusCode, body)
	}
	// Wait for the worker to pick it up so the queue slot is free again.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Gauge(MetricJobsRunning).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, body = postJSON(t, ts.URL+"/v1/analyze", slowReq(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d: %s", resp.StatusCode, body)
	}
	// Worker busy + queue slot taken → the third submission must throttle.
	resp, body = postJSON(t, ts.URL+"/v1/races", map[string]any{
		"execution": executionJSON(t, slow), "async": true, "timeoutMs": 10000,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After hint")
	}
	if n := srv.Metrics().Counter(MetricJobsRejected).Value(); n < 1 {
		t.Errorf("jobs_rejected = %d, want ≥ 1", n)
	}
	if n := srv.Metrics().Counter(MetricJobsThrottled).Value(); n < 1 {
		t.Errorf("jobs_throttled = %d, want ≥ 1", n)
	}
}

// TestRacesEndpoint checks the exact detector's verdict against a direct
// race.Detect call by way of known seeded-race structure.
func TestRacesEndpoint(t *testing.T) {
	x, _, err := gen.SeededRaces(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/races", map[string]any{"execution": executionJSON(t, x)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RacesResult
	if err := json.Unmarshal(decodeEnvelope(t, body).Result, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Candidates) == 0 {
		t.Fatal("no candidates on a seeded-race workload")
	}
	if len(rr.Exact) == 0 {
		t.Error("seeded unguarded race not confirmed by exact detector")
	}
	for _, p := range rr.Exact {
		if p.Var == "" || p.AName == "" || p.BName == "" {
			t.Errorf("race pair missing names: %+v", p)
		}
	}
}

// TestWitnessEndpoint requires a CCW witness schedule whose steps
// interleave the two events' begin/end boundaries.
func TestWitnessEndpoint(t *testing.T) {
	x, _, err := gen.SeededRaces(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Find any exact race to demonstrate.
	labels := x.Labels()
	if len(labels) < 2 {
		t.Fatalf("expected labeled events, have %v", labels)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/witness", map[string]any{
		"execution": executionJSON(t, x), "rel": "CCW", "a": labels[0], "b": labels[1],
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wr WitnessResult
	if err := json.Unmarshal(decodeEnvelope(t, body).Result, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Verdict == VerdictTrue && len(wr.Steps) == 0 {
		t.Error("holding could-relation came without a schedule")
	}
}

// TestBadRequests covers input validation statuses.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"no source", "/v1/analyze", map[string]any{"rel": "MHB"}, http.StatusBadRequest},
		{"both sources", "/v1/analyze", map[string]any{"program": "proc main { }", "execution": map[string]any{}}, http.StatusBadRequest},
		{"bad relation", "/v1/analyze", map[string]any{"program": figure1Program(t), "rel": "XXX", "a": "lp", "b": "rp"}, http.StatusBadRequest},
		{"unknown label", "/v1/analyze", map[string]any{"program": figure1Program(t), "rel": "MHB", "a": "lp", "b": "nope"}, http.StatusBadRequest},
		{"pair without b", "/v1/analyze", map[string]any{"program": figure1Program(t), "rel": "MHB", "a": "lp"}, http.StatusBadRequest},
		{"same event twice", "/v1/analyze", map[string]any{"program": figure1Program(t), "rel": "MHB", "a": "lp", "b": "lp"}, http.StatusBadRequest},
		{"parse error", "/v1/analyze", map[string]any{"program": "proc {{{"}, http.StatusBadRequest},
		{"corrupt trace", "/v1/analyze", map[string]any{"execution": map[string]any{"version": 99}}, http.StatusBadRequest},
		{"unknown field", "/v1/analyze", map[string]any{"programme": "x"}, http.StatusBadRequest},
		{"witness needs rel", "/v1/witness", map[string]any{"program": figure1Program(t), "rel": "", "a": "lp", "b": "rp"}, http.StatusBadRequest},
		{"trailing object", "/v1/analyze", rawBody(`{"program":"proc main { }","all":true} {"program":"garbage"}`), http.StatusBadRequest},
		{"trailing bytes", "/v1/analyze", rawBody(`{"program":"proc main { }","all":true}xyz`), http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.want, body)
		}
		if _, trailing := c.body.(rawBody); trailing && !strings.Contains(string(body), "trailing data") {
			t.Errorf("%s: error does not name trailing data: %s", c.name, body)
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/j999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestBodyLimit pins MaxBodyBytes on the whole body: on every endpoint a
// body one byte over the limit answers 413, whether its length is declared
// or it arrives chunked, even when the object inside it would fit, and a
// body exactly at the limit is accepted.
func TestBodyLimit(t *testing.T) {
	const limit = 1 << 10
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: limit})
	for _, path := range []string{"/v1/analyze", "/v1/races", "/v1/witness"} {
		obj := `{"program":"proc main { a: skip\n b: skip }","rel":"MHB","a":"a","b":"b"}`
		if path == "/v1/races" {
			obj = `{"program":"proc main { a: skip\n b: skip }"}`
		}
		atLimit := obj + strings.Repeat(" ", limit-len(obj))
		if resp, body := postJSON(t, ts.URL+path, rawBody(atLimit)); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: body at the limit: status %d, want 200: %s", path, resp.StatusCode, body)
		}
		over := atLimit + " "
		if resp, body := postJSON(t, ts.URL+path, rawBody(over)); resp.StatusCode != http.StatusRequestEntityTooLarge ||
			!strings.Contains(string(body), "request body too large") {
			t.Errorf("%s: body over the limit: status %d, want 413: %s", path, resp.StatusCode, body)
		}
		// No Content-Length: the limit strikes while reading.
		resp, err := http.Post(ts.URL+path, "application/json", io.MultiReader(strings.NewReader(over)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: chunked body over the limit: status %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestDecodePhase pins the request body decode's span: a trace request's
// envelope lists "decode" before "resolve", since the one-pass path decodes
// the trace with the body.
func TestDecodePhase(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", rawBody(traceBodies(t)["analyze/barrier-ring5"]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	env := decodeEnvelope(t, body)
	var names []string
	for _, p := range env.Trace.Phases {
		names = append(names, p.Name)
	}
	if len(names) < 2 || names[0] != "decode" || names[1] != "resolve" {
		t.Errorf("phases %v, want decode then resolve first", names)
	}
}

// TestTriesLimit pins the cap on deadlock-avoiding retries: a program
// request asking for more than maxTries is rejected with 400 before the
// interpreter runs, on every endpoint that runs programs, while maxTries
// itself is accepted.
func TestTriesLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	deadlocks := "sem s = 0\nproc main { P(s) }"
	for _, path := range []string{"/v1/analyze", "/v1/races", "/v1/witness"} {
		req := map[string]any{"program": deadlocks, "tries": 1 << 30}
		if path != "/v1/races" {
			req["rel"], req["a"], req["b"] = "MHB", "x", "y"
		}
		resp, body := postJSON(t, ts.URL+path, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", path, resp.StatusCode, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("tries %d exceeds the maximum of %d", 1<<30, maxTries); !strings.Contains(e.Error, want) {
			t.Errorf("%s: error %q, want it to contain %q", path, e.Error, want)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"program": figure1Program(t), "tries": maxTries, "rel": "MHB", "a": "lp", "b": "rp",
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("tries=maxTries: status %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestBudgetExceeded pins the budget split: a per-pair query still maps
// core.ErrBudget to 422 (there is no partial value to return), while the
// matrix path answers 200 with an anytime partial.
func TestBudgetExceeded(t *testing.T) {
	big, err := gen.Mutex(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	// A pair the search, not the structural pre-check, decides, so the
	// node budget applies.
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"program": readTestdataProgram(t, "singlesem.evo"), "rel": "CHB", "a": "csa", "b": "csb", "budget": 1,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("pair budget: status %d, want 422: %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"execution": executionJSON(t, big), "all": true, "budget": 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matrix budget: status %d, want 200 partial: %s", resp.StatusCode, body)
	}
	var m MatrixResult
	if err := json.Unmarshal(decodeEnvelope(t, body).Result, &m); err != nil {
		t.Fatal(err)
	}
	if m.Complete || m.Cause != "budget" {
		t.Errorf("matrix budget: complete=%v cause=%q, want partial with budget cause", m.Complete, m.Cause)
	}
}

// TestHealthzAndMetricsShape sanity-checks the operational endpoints.
func TestHealthzAndMetricsShape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Workers != 3 {
		t.Errorf("healthz = %+v", health)
	}
	postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": figure1Program(t), "rel": "MHB", "a": "lp", "b": "rp"})
	// A matrix query folds the whole reachable state space into the
	// analyzer's completion memo, so the occupancy gauges must be nonzero.
	postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": figure1Program(t), "all": true})
	var snap Snapshot
	if resp := getJSON(t, ts.URL+"/metrics", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if snap.Counters[MetricRequests+"_analyze"] < 1 {
		t.Errorf("no analyze requests counted: %+v", snap.Counters)
	}
	if snap.Counters[MetricCacheMisses] < 1 {
		t.Errorf("no cache misses counted: %+v", snap.Counters)
	}
	h, ok := snap.Histograms[MetricLatency+"_analyze"]
	if !ok || h.Count < 1 {
		t.Errorf("latency histogram missing or empty: %+v", snap.Histograms)
	}
	// The matrix query above filled its analyzer's completion memo, so
	// the occupancy gauges must have been exported.
	if snap.Gauges[MetricMemoEntries] <= 0 || snap.Gauges[MetricMemoBytes] <= 0 {
		t.Errorf("memo occupancy gauges not exported: %+v", snap.Gauges)
	}
	if load := snap.Gauges[MetricMemoLoadPermille]; load <= 0 || load > 750 {
		t.Errorf("memo load permille %d outside (0, 750]", load)
	}
	// A small query may never double its table, so only presence (the
	// counter registered at observe time) is guaranteed.
	if _, ok := snap.Counters[MetricMemoGrows]; !ok {
		t.Errorf("memo grow counter not exported: %+v", snap.Counters)
	}
}

// TestAnalyzeTiersKnob covers the planner knob on the matrix path:
// out-of-range values are clamped (below -1 to -1, above the deepest tier
// to the full cascade) rather than rejected; every setting returns
// identical relation verdicts; the default runs the full cascade (plan
// summary with tier rows and a residue that accounts for every pair);
// tiers=-1 disables the planner (no tier rows, all pairs residue); and
// results are NOT shared across tiers settings (the summary differs, so
// tiers is part of the cache key).
func TestAnalyzeTiersKnob(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	prog := figure1Program(t)

	for _, clamped := range []int{-2, 4} {
		resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": prog, "all": true, "tiers": clamped})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("tiers=%d: status %d, want 200 (clamped): %s", clamped, resp.StatusCode, body)
		}
	}

	matrixFor := func(tiers int) MatrixResult {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": prog, "all": true, "tiers": tiers})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tiers=%d: status %d: %s", tiers, resp.StatusCode, body)
		}
		var m MatrixResult
		if err := json.Unmarshal(decodeEnvelope(t, body).Result, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	full := matrixFor(0)
	if full.Plan == nil {
		t.Fatal("planned matrix has no plan summary")
	}
	if len(full.Plan.Tiers) == 0 {
		t.Error("default tiers ran no polynomial tiers")
	}
	decided := 0
	for _, tier := range full.Plan.Tiers {
		decided += tier.PairsDecided
	}
	if decided+full.Plan.ResiduePairs != full.Plan.TotalPairs {
		t.Errorf("plan accounting: %d decided + %d residue != %d total",
			decided, full.Plan.ResiduePairs, full.Plan.TotalPairs)
	}
	if decided == 0 {
		t.Error("polynomial tiers decided nothing on figure1")
	}

	off := matrixFor(-1)
	if off.Plan == nil || len(off.Plan.Tiers) != 0 || off.Plan.ResiduePairs != off.Plan.TotalPairs {
		t.Errorf("tiers=-1 plan summary = %+v, want no tiers and all pairs residue", off.Plan)
	}
	if fmt.Sprint(off.Relations) != fmt.Sprint(full.Relations) {
		t.Errorf("verdicts differ between planner on and off:\non:  %v\noff: %v", full.Relations, off.Relations)
	}

	snap := srv.Metrics().Snapshot()
	if snap.Counters[MetricPlanPairs+"_static"] <= 0 {
		t.Errorf("no static-tier pairs counted: %+v", snap.Counters)
	}
	if _, ok := snap.Counters[MetricPlanPairs+"_exact"]; !ok {
		t.Errorf("no exact residue counter registered: %+v", snap.Counters)
	}
}

// TestDisablePlanConfig pins the server-wide kill switch: with
// DisablePlan set, even a default (tiers=0) matrix request runs
// exact-only and reports an empty cascade.
func TestDisablePlanConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, DisablePlan: true})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": figure1Program(t), "all": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var m MatrixResult
	if err := json.Unmarshal(decodeEnvelope(t, body).Result, &m); err != nil {
		t.Fatal(err)
	}
	if m.Plan == nil || len(m.Plan.Tiers) != 0 || m.Plan.ResiduePairs != m.Plan.TotalPairs {
		t.Errorf("DisablePlan plan summary = %+v, want empty cascade with all pairs residue", m.Plan)
	}
}
