package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"eventorder/internal/core"
	"eventorder/internal/model"
)

// readTestdataProgram loads a mini-language program from the repository
// testdata corpus.
func readTestdataProgram(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// envelopeOf decodes a 200 response body into its envelope and fails the
// test on any mismatch with the tracing contract (request ID present and
// equal to the X-Request-Id header and the trace block's).
func envelopeOf(t *testing.T, resp *http.Response, body []byte) Envelope {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("bad envelope: %v: %s", err, body)
	}
	if env.RequestID == "" {
		t.Fatalf("envelope without a request id: %s", body)
	}
	if hdr := resp.Header.Get("X-Request-Id"); hdr != env.RequestID {
		t.Fatalf("X-Request-Id %q != envelope requestId %q", hdr, env.RequestID)
	}
	if env.Trace == nil || env.Trace.RequestID != env.RequestID {
		t.Fatalf("trace block missing or mismatched: %s", body)
	}
	return env
}

// TestAdmissionLaneClassification drives the lane classifier across its
// boundaries: planner-decidable matrix queries and pair queries on
// certified executions ride the fast lane, everything with exponential
// residue (or no plan at all) and pair queries that may search go heavy,
// and cache hits short-circuit both. The pair rows use the pair
// benchmark's traces: forkjoin5 is certified, barrier-ring5 is not.
func TestAdmissionLaneClassification(t *testing.T) {
	handshake := readTestdataProgram(t, "handshake.evo")
	figure1 := readTestdataProgram(t, "figure1.evo")
	burst := readTestdataProgram(t, "burst.evo")
	traces := ingestTraces(t)
	pair := func(trace, a, b string) map[string]any {
		return map[string]any{"execution": json.RawMessage(traces[trace]), "rel": "MHB", "a": a, "b": b}
	}

	cases := []struct {
		name string
		body map[string]any
		want string
	}{
		{
			name: "planner-decidable matrix rides fast",
			body: map[string]any{"program": handshake, "all": true},
			want: LaneFast,
		},
		{
			name: "certified matrix rides fast",
			body: map[string]any{"program": burst, "all": true},
			want: LaneFast,
		},
		{
			name: "residue-bearing matrix goes heavy",
			body: map[string]any{"program": figure1, "all": true},
			want: LaneHeavy,
		},
		{
			name: "planner disabled per request goes heavy",
			body: map[string]any{"program": handshake, "all": true, "tiers": -1},
			want: LaneHeavy,
		},
		{
			name: "pair query goes heavy",
			body: pair("barrier-ring5", "before0", "after4"),
			want: LaneHeavy,
		},
		{
			name: "certified pair query rides fast",
			body: pair("forkjoin5", "setup", "collect"),
			want: LaneFast,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 2})
			resp, body := postJSON(t, ts.URL+"/v1/analyze", c.body)
			env := envelopeOf(t, resp, body)
			if env.Trace.Lane != c.want {
				t.Errorf("lane = %q, want %q (trace %+v)", env.Trace.Lane, c.want, env.Trace)
			}
			// The same request again must short-circuit to the cache lane.
			resp, body = postJSON(t, ts.URL+"/v1/analyze", c.body)
			env = envelopeOf(t, resp, body)
			if !env.Cached || env.Trace.Lane != LaneCache {
				t.Errorf("second request: cached=%t lane=%q, want cache hit", env.Cached, env.Trace.Lane)
			}
		})
	}
}

// TestMatrixRequestBuildsOneAnalyzer checks the analyzer hand-off: an
// uncached matrix request builds one analyzer, which plans and then runs
// the job, and a cache hit builds none. burst.evo is certified, so its
// request decides every pair in the plan and expands no state; figure1.evo
// keeps residue for the search.
func TestMatrixRequestBuildsOneAnalyzer(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var built atomic.Int64
	srv.newAnalyzer = func(x *model.Execution, opts core.Options) (*core.Analyzer, error) {
		built.Add(1)
		return core.New(x, opts)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		ts.Close()
	})
	for _, name := range []string{"burst.evo", "figure1.evo"} {
		body := map[string]any{"program": readTestdataProgram(t, name), "all": true}
		built.Store(0)
		resp, raw := postJSON(t, ts.URL+"/v1/analyze", body)
		env := envelopeOf(t, resp, raw)
		var res MatrixResult
		if err := json.Unmarshal(env.Result, &res); err != nil {
			t.Fatal(err)
		}
		if n := built.Load(); n != 1 {
			t.Errorf("%s: an uncached request built %d analyzers, want 1", name, n)
		}
		if certified := name == "burst.evo"; certified != (res.Nodes == 0) || certified != (res.Plan.ResiduePairs == 0) {
			t.Errorf("%s: %d nodes expanded with %d residue pairs", name, res.Nodes, res.Plan.ResiduePairs)
		}
		built.Store(0)
		resp, raw = postJSON(t, ts.URL+"/v1/analyze", body)
		if env := envelopeOf(t, resp, raw); !env.Cached {
			t.Fatalf("%s: the repeated request was not a cache hit", name)
		}
		if n := built.Load(); n != 0 {
			t.Errorf("%s: a cache hit built %d analyzers, want 0", name, n)
		}
	}
}

// TestAdmissionResumeGoesHeavy checks the resume path: a checkpoint
// continuation skips planning and must always take the heavy lane.
func TestAdmissionResumeGoesHeavy(t *testing.T) {
	figure1 := readTestdataProgram(t, "figure1.evo")
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"program": figure1, "all": true, "budget": 16,
	})
	env := envelopeOf(t, resp, body)
	var mr MatrixResult
	if err := json.Unmarshal(env.Result, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Complete || mr.Checkpoint == nil {
		t.Fatalf("budget-starved run should be partial with a checkpoint (complete=%t)", mr.Complete)
	}
	resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"program": figure1, "all": true, "budget": 1 << 30, "resume": mr.Checkpoint,
	})
	env = envelopeOf(t, resp, body)
	if env.Trace.Lane != LaneHeavy {
		t.Errorf("resumed request lane = %q, want heavy", env.Trace.Lane)
	}
}

// blockWorkers parks `workers` of the pool's workers on inert jobs and
// then fills `queued` of its queue slots, blocking everything until the
// returned release func is called. Parking is sequenced — each worker is
// confirmed busy before the queue is filled — so admission tests get a
// deterministic pool state instead of racing against dequeue timing.
func blockWorkers(t *testing.T, s *Server, workers, queued int) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	var started atomic.Int32
	done := make([]chan struct{}, 0, workers+queued)
	released := false
	release = func() {
		if released {
			return
		}
		released = true
		close(ch)
		for _, d := range done {
			<-d
		}
	}
	// Register before the first submit: if a submit fails mid-way, the
	// blockers already parked on a worker must still be released or the
	// server's shutdown cleanup would wait on them forever.
	t.Cleanup(release)
	mkBlocker := func() *job {
		return &job{
			ctx:    context.Background(),
			cancel: func() {},
			lane:   LaneHeavy,
			run: func(ctx context.Context) (jobOutput, error) {
				started.Add(1)
				<-ch
				return jobOutput{}, nil
			},
			done: make(chan struct{}),
		}
	}
	waitFor := func(cond func() bool, what string) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("blockWorkers: %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < workers; i++ {
		j := mkBlocker()
		if err := s.submit(j); err != nil {
			t.Fatalf("worker blocker %d: %v", i, err)
		}
		done = append(done, j.done)
		want := i + 1
		waitFor(func() bool { return int(started.Load()) >= want }, "worker never parked")
	}
	for i := 0; i < queued; i++ {
		j := mkBlocker()
		if err := s.submit(j); err != nil {
			t.Fatalf("queue blocker %d: %v", i, err)
		}
		done = append(done, j.done)
		want := i + 1
		waitFor(func() bool { return len(s.jobs) >= want }, "queue slot never filled")
	}
	return release
}

// TestAdmissionQueueFull429 fills the queue deterministically with parked
// jobs and checks the overflow answer: 429, a Retry-After hint, and the
// throttle counters moving.
func TestAdmissionQueueFull429(t *testing.T) {
	figure1 := readTestdataProgram(t, "figure1.evo")
	t.Run("heavy queue overflow", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{
			Workers: 1, QueueDepth: 1,
			// Keep shedding out of this test's way: it would clamp the
			// probe's deadline, not change its admission.
			ShedDepth: 100,
		})
		// One blocker parks the worker, the second fills the one queue
		// slot.
		blockWorkers(t, srv, 1, 1)
		resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": figure1, "all": true})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without a Retry-After header")
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.RequestID == "" {
			t.Errorf("429 body without a request id: %s", body)
		}
		if n := srv.Metrics().Counter(MetricJobsThrottled).Value(); n != 1 {
			t.Errorf("jobs_throttled = %d, want 1", n)
		}
	})
}

// TestAdmissionDecidedSkipsFullQueue checks that planner-decided work
// never enters the queue: with the one worker parked and the one queue
// slot taken, a fully decided matrix request still answers at once,
// synchronously and async, while a request with residue is refused.
func TestAdmissionDecidedSkipsFullQueue(t *testing.T) {
	handshake := readTestdataProgram(t, "handshake.evo")
	figure1 := readTestdataProgram(t, "figure1.evo")
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, ShedDepth: 100})
	blockWorkers(t, srv, 1, 1)

	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": handshake, "all": true})
	env := envelopeOf(t, resp, body)
	if env.Trace.Lane != LaneFast || env.Trace.QueueWaitMs >= 1 {
		t.Errorf("decided request: lane %q, queue wait %.3fms; want fast and below 1ms", env.Trace.Lane, env.Trace.QueueWaitMs)
	}
	if n := srv.Metrics().Counter(MetricJobsFastLane).Value(); n != 1 {
		t.Errorf("jobs_fast_lane = %d, want 1", n)
	}

	// ignoreData gives the async request its own cache key, so it runs.
	resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": handshake, "all": true, "async": true, "ignoreData": true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async decided request: status %d, want 202: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Status != JobDone {
		t.Errorf("async decided request answered status %q, want %q", jr.Status, JobDone)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+jr.ID, &jr)
	var m MatrixResult
	if err := json.Unmarshal(jr.Result, &m); err != nil || jr.Status != JobDone || !m.Complete {
		t.Errorf("polled job: status %q, complete %t, err %v", jr.Status, m.Complete, err)
	}

	resp, body = postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": figure1, "all": true})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("request with residue: status %d, want 429: %s", resp.StatusCode, body)
	}
}

// TestShedPartialSoundAgainstFullMatrix forces shed mode with parked
// jobs, sends a matrix query with a generous client deadline, and checks
// the degraded answer: 200, shed-marked, partial with a checkpoint — and
// SOUND, i.e. nothing the partial asserts or omits contradicts the full
// matrix computed afterwards on an idle server.
func TestShedPartialSoundAgainstFullMatrix(t *testing.T) {
	prog := readTestdataProgram(t, "barrier6.evo")
	srv, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8,
		ShedDepth:    1,
		ShedTimeout:  time.Millisecond,
		PartialGrace: 30 * time.Second,
	})
	// Park the heavy worker and leave one job sitting in the queue: the
	// occupancy is at ShedDepth, so the next anytime request is shed.
	release := blockWorkers(t, srv, 1, 1)

	type result struct {
		resp *http.Response
		body []byte
	}
	ch := make(chan result, 1)
	go func() {
		// tiers: -1 sidesteps the planner's pre-solved seed so the exact
		// search has real work left — otherwise even a 1ms clamped
		// deadline is enough to finish and there is no partial to check.
		resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
			"program": prog, "all": true, "timeoutMs": 20000, "tiers": -1,
		})
		ch <- result{resp, body}
	}()
	// Wait until the shed request is queued behind the parked jobs, then
	// let the queue drain so it runs (and instantly hits its clamped
	// deadline).
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.jobs) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("shed request never reached the queue")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Let the clamped 1ms deadline expire while the request is still
	// queued; releasing too quickly would let the analysis finish inside
	// its deadline and leave no partial to validate.
	time.Sleep(20 * time.Millisecond)
	release()
	res := <-ch

	env := envelopeOf(t, res.resp, res.body)
	if !env.Trace.Shed {
		t.Fatalf("trace not marked shed: %+v", env.Trace)
	}
	if env.Trace.Lane != LaneHeavy {
		t.Errorf("shed request lane = %q, want heavy", env.Trace.Lane)
	}
	var partial MatrixResult
	if err := json.Unmarshal(env.Result, &partial); err != nil {
		t.Fatal(err)
	}
	if partial.Complete {
		t.Skip("analysis finished inside the shed timeout; nothing to validate")
	}
	if partial.Checkpoint == nil {
		t.Fatal("shed partial without a checkpoint")
	}
	if n := srv.Metrics().Counter(MetricJobsShed).Value(); n < 1 {
		t.Errorf("jobs_shed = %d, want ≥ 1", n)
	}

	// Full matrix on the now-idle server (different timeout knobs share
	// the cache key, so bypass it with a distinct tiers setting? No —
	// the first, shed request never cached its partial, so this request
	// computes fresh).
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"program": prog, "all": true, "timeoutMs": 60000,
	})
	env = envelopeOf(t, resp, body)
	var full MatrixResult
	if err := json.Unmarshal(env.Result, &full); err != nil {
		t.Fatal(err)
	}
	if !full.Complete {
		t.Fatalf("reference run did not complete: %s", env.Result)
	}

	// Soundness: the partial's positive verdicts must appear in the full
	// result, and a pair the partial claims decided-negative (absent from
	// both relations and undecided) must be absent from the full result.
	pairSet := func(pairs [][2]int) map[[2]int]bool {
		m := map[[2]int]bool{}
		for _, p := range pairs {
			m[p] = true
		}
		return m
	}
	for rel, pairs := range partial.Relations {
		fullSet := pairSet(full.Relations[rel])
		undecided := pairSet(partial.Undecided[rel])
		for _, p := range pairs {
			if !fullSet[p] {
				t.Errorf("%s: partial asserts %v but the full matrix refutes it", rel, p)
			}
		}
		partialSet := pairSet(pairs)
		for _, p := range full.Relations[rel] {
			if !partialSet[p] && !undecided[p] {
				t.Errorf("%s: partial decided %v negative but the full matrix proves it", rel, p)
			}
		}
	}
	if fmt.Sprint(partial.Events) != fmt.Sprint(full.Events) {
		t.Errorf("event universes differ: %v vs %v", partial.Events, full.Events)
	}
}
