package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"eventorder/internal/gen"
	"eventorder/internal/service"
	"eventorder/internal/traceio"
	"eventorder/internal/vfs"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the selfcheck captures the
// server's structured log stream from handler and worker goroutines and
// reads it back on the main one.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// handshakeSrc is a two-process semaphore handshake: fully ordered by
// synchronization, so the tiered planner decides every pair and the
// request is answered without entering the queue.
const handshakeSrc = `
sem s = 0

proc sender {
    a: skip
    V(s)
}
proc receiver {
    P(s)
    b: skip
}
`

// figure1Src is the paper's Figure 1a program (testdata/figure1.evo): the
// shared-data dependence "X := 1" → "if X == 1" orders the two posts even
// though no explicit synchronization connects them. Under the default
// scheduler seed the observed run takes the X == 1 branch, so the labels
// lp (left post) and rp (right post) both exist and lp MHB rp must hold.
const figure1Src = `
event e
var X

proc main {
    fork t1
    fork t2
    fork t3
}
proc t1 {
    lp: post(e)
    X := 1
}
proc t2 {
    if X == 1 {
        rp: post(e)
    } else {
        wait(e)
    }
}
proc t3 {
    w: wait(e)
}
`

// runSelfcheck boots a loopback server and exercises the acceptance path:
// Figure 1 MHB verdict, cache hit on the identical repeat, a 1ms deadline
// on a large instance degrading to an anytime partial with the queue
// draining back to zero, the request-tracing and planner-decided admission
// contracts, a short soak burst, a durable restart (an async job survives
// a shutdown/boot cycle on a state directory), and graceful shutdown.
func runSelfcheck(cfg service.Config) error {
	cfg.QueueDepth = 16
	// Capture the structured log stream: the tracing contract says every
	// response's request ID must be greppable in the server logs.
	logbuf := &syncBuffer{}
	cfg.Logger = slog.New(slog.NewJSONHandler(logbuf, nil))
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	post := func(path string, body any, want int, into any) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			var e struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&e)
			return fmt.Errorf("POST %s: status %d (want %d): %s", path, resp.StatusCode, want, e.Error)
		}
		if into != nil {
			return json.NewDecoder(resp.Body).Decode(into)
		}
		return nil
	}
	get := func(path string, into any) error {
		resp, err := client.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(into)
	}

	// Liveness.
	var health struct {
		Status string `json:"status"`
	}
	if err := get("/healthz", &health); err != nil {
		return err
	}
	if health.Status != "ok" {
		return fmt.Errorf("healthz reports %q", health.Status)
	}

	// Figure 1: lp MHB rp must hold (the data dependence orders the posts).
	req := map[string]any{"program": figure1Src, "rel": "MHB", "a": "lp", "b": "rp"}
	var env service.Envelope
	if err := post("/v1/analyze", req, http.StatusOK, &env); err != nil {
		return err
	}
	var pair service.PairResult
	if err := json.Unmarshal(env.Result, &pair); err != nil {
		return err
	}
	if pair.Verdict != service.VerdictTrue {
		return fmt.Errorf("figure 1: lp MHB rp = %s, want true", pair.Verdict)
	}
	if env.SchemaVersion != service.SchemaVersion {
		return fmt.Errorf("envelope schemaVersion = %d, want %d", env.SchemaVersion, service.SchemaVersion)
	}
	if env.Cached {
		return fmt.Errorf("first figure-1 request claimed a cache hit")
	}

	// The identical request must be served from the result cache.
	env = service.Envelope{}
	if err := post("/v1/analyze", req, http.StatusOK, &env); err != nil {
		return err
	}
	if !env.Cached {
		return fmt.Errorf("repeat figure-1 request was not served from cache")
	}
	var snap service.Snapshot
	if err := get("/metrics", &snap); err != nil {
		return err
	}
	if snap.Counters[service.MetricCacheHits] < 1 {
		return fmt.Errorf("metrics report %d cache hits after a cached response", snap.Counters[service.MetricCacheHits])
	}

	// Request tracing: the envelope's request ID must match the
	// X-Request-Id header, carry a trace block, and be greppable in the
	// server's structured logs.
	traceReq, err := json.Marshal(map[string]any{"program": handshakeSrc, "all": true})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(traceReq))
	if err != nil {
		return err
	}
	env = service.Envelope{}
	decodeErr := json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if decodeErr != nil {
		return decodeErr
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("handshake matrix: status %d", resp.StatusCode)
	}
	if env.RequestID == "" {
		return fmt.Errorf("envelope carries no request id")
	}
	if hdr := resp.Header.Get("X-Request-Id"); hdr != env.RequestID {
		return fmt.Errorf("X-Request-Id header %q != envelope request id %q", hdr, env.RequestID)
	}
	if env.Trace == nil || env.Trace.RequestID != env.RequestID {
		return fmt.Errorf("trace block missing or mismatched: %+v", env.Trace)
	}
	// The handshake is fully planner-decidable, so admission must have
	// answered it on the request's goroutine.
	if env.Trace.Lane != service.LaneFast {
		return fmt.Errorf("planner-decidable request rode lane %q, want %q", env.Trace.Lane, service.LaneFast)
	}
	// A synchronous request logs one line, carrying both its status and
	// its job's phases. The line is written once the handler returns,
	// which can be after the client has read the body, so wait for it.
	var ridLines []map[string]any
	for deadline := time.Now().Add(5 * time.Second); len(ridLines) == 0 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		scanner := bufio.NewScanner(strings.NewReader(logbuf.String()))
		for scanner.Scan() {
			var line map[string]any
			if json.Unmarshal(scanner.Bytes(), &line) == nil && line["rid"] == env.RequestID {
				ridLines = append(ridLines, line)
			}
		}
	}
	if len(ridLines) != 1 {
		return fmt.Errorf("request id %s appears in %d log lines, want exactly 1", env.RequestID, len(ridLines))
	}
	phases := 0
	for k := range ridLines[0] {
		if strings.HasPrefix(k, "phase_") {
			phases++
		}
	}
	if _, ok := ridLines[0]["status"]; !ok || phases == 0 {
		return fmt.Errorf("request log line lacks a status or a phase field: %v", ridLines[0])
	}

	// A 1ms deadline on a large instance must return an anytime partial —
	// 200 with "complete": false and a resumable checkpoint — and free its
	// worker. The batch matrix engine answers mutex-style instances in
	// microseconds, so the slow workload must be state-space-heavy: a
	// semaphore barrier's matrix takes hundreds of milliseconds, far past
	// the 1ms deadline.
	big, err := gen.Barrier(6)
	if err != nil {
		return err
	}
	var trace bytes.Buffer
	if err := traceio.SaveExecution(&trace, big); err != nil {
		return err
	}
	slow := map[string]any{"execution": json.RawMessage(trace.Bytes()), "all": true, "timeoutMs": 1}
	env = service.Envelope{}
	if err := post("/v1/analyze", slow, http.StatusOK, &env); err != nil {
		return err
	}
	var partial service.MatrixResult
	if err := json.Unmarshal(env.Result, &partial); err != nil {
		return err
	}
	if partial.Complete {
		return fmt.Errorf("1ms-deadline barrier matrix claims to be complete")
	}
	if partial.Checkpoint == nil {
		return fmt.Errorf("partial matrix result carries no checkpoint")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := get("/metrics", &snap); err != nil {
			return err
		}
		if snap.Gauges[service.MetricQueueDepth] == 0 && snap.Gauges[service.MetricJobsRunning] == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("queue depth stuck at %d (running %d) after deadline-exceeded job",
				snap.Gauges[service.MetricQueueDepth], snap.Gauges[service.MetricJobsRunning])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.Counters[service.MetricAnalyzePartial] < 1 {
		return fmt.Errorf("no partial anytime result counted")
	}

	// Resuming from the returned checkpoint with no deadline must finish
	// the analysis and report every pair decided.
	resume := map[string]any{
		"execution": json.RawMessage(trace.Bytes()), "all": true,
		"resume": partial.Checkpoint,
	}
	env = service.Envelope{}
	if err := post("/v1/analyze", resume, http.StatusOK, &env); err != nil {
		return err
	}
	var full service.MatrixResult
	if err := json.Unmarshal(env.Result, &full); err != nil {
		return err
	}
	if !full.Complete {
		return fmt.Errorf("resumed barrier matrix still incomplete (%d/%d pairs)", full.DecidedPairs, full.TotalPairs)
	}
	if snapErr := get("/metrics", &snap); snapErr != nil {
		return snapErr
	}
	if snap.Counters[service.MetricAnalyzeResumed] < 1 {
		return fmt.Errorf("no resumed analysis counted")
	}

	// The freed worker must serve new requests.
	if err := post("/v1/analyze", req, http.StatusOK, &env); err != nil {
		return err
	}

	// The latency and per-lane queue-wait histograms must be populated by
	// the traffic above — these are the series the operating docs point
	// dashboards at.
	if err := get("/metrics", &snap); err != nil {
		return err
	}
	for _, name := range []string{
		service.MetricLatency + "_analyze",
		service.MetricQueueWait + "_" + service.LaneFast,
		service.MetricQueueWait + "_" + service.LaneHeavy,
	} {
		if h, ok := snap.Histograms[name]; !ok || h.Count == 0 {
			return fmt.Errorf("histogram %s empty after traffic (present=%t)", name, ok)
		}
	}

	// A short burst of the soak harness: mixed fast/heavy traffic with
	// deadline storms and stalled clients against a deliberately small
	// pool, holding the load-shedding contract (only 200/202/429, partials
	// resumable, no hangs).
	soakRep, err := service.RunSoak(context.Background(), service.SoakOptions{
		Duration:     2 * time.Second,
		Clients:      3,
		StormClients: 1,
		SlowClients:  1,
		Programs: []service.SoakProgram{
			{Name: "handshake", Source: handshakeSrc},
			{Name: "figure1", Source: figure1Src},
		},
		Server: service.Config{Workers: 1, QueueDepth: 8},
	})
	if err != nil {
		return fmt.Errorf("soak: %w", err)
	}
	for _, msg := range soakRep.Unexpected {
		return fmt.Errorf("soak contract violation: %s", msg)
	}
	for code := range soakRep.Statuses {
		switch code {
		case 200, 202, 429:
		default:
			return fmt.Errorf("soak saw status %d (%d times); contract allows only 200/202/429",
				code, soakRep.Statuses[code])
		}
	}
	if soakRep.Requests == 0 || soakRep.Complete+soakRep.Partial == 0 {
		return fmt.Errorf("soak issued %d requests with %d results — harness misfire",
			soakRep.Requests, soakRep.Complete+soakRep.Partial)
	}

	// Durability: an acknowledged async job must survive a restart.
	if err := selfcheckDurability(trace.Bytes()); err != nil {
		return fmt.Errorf("durability: %w", err)
	}

	// Graceful shutdown: drain workers, then close connections.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return httpSrv.Shutdown(ctx)
}

// selfcheckDurability exercises the crash-safe path end to end on an
// in-memory filesystem: submit a heavy async job to a durable server,
// shut the server down while the job is (usually) still running so the
// drain grace persists a checkpoint, boot a fresh server on the same
// state directory, and require the job to come back pollable and finish
// with a complete matrix.
func selfcheckDurability(barrierTrace []byte) error {
	fs := vfs.NewMemFS()
	cfg := service.Config{
		Workers:         1,
		QueueDepth:      8,
		StateDir:        "/state",
		StateFS:         fs,
		DrainCheckpoint: 50 * time.Millisecond,
		Logger:          slog.New(slog.NewJSONHandler(&syncBuffer{}, nil)),
	}
	boot := func() (*service.Server, *http.Server, string, error) {
		srv, err := service.New(cfg)
		if err != nil {
			return nil, nil, "", err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, "", err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		return srv, httpSrv, "http://" + ln.Addr().String(), nil
	}
	client := &http.Client{Timeout: 30 * time.Second}
	pollJob := func(base, id string, deadline time.Duration) (service.JobResponse, error) {
		var jr service.JobResponse
		end := time.Now().Add(deadline)
		for {
			resp, err := client.Get(base + "/v1/jobs/" + id)
			if err != nil {
				return jr, err
			}
			err = json.NewDecoder(resp.Body).Decode(&jr)
			resp.Body.Close()
			if err != nil {
				return jr, err
			}
			if jr.Status == service.JobDone || jr.Status == service.JobFailed || jr.Status == service.JobRunning {
				return jr, nil
			}
			if time.Now().After(end) {
				return jr, fmt.Errorf("job %s stuck in %s", id, jr.Status)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	srv, httpSrv, base, err := boot()
	if err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{
		"execution": json.RawMessage(barrierTrace), "all": true, "async": true,
	})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var jr service.JobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("async submit: status %d", resp.StatusCode)
	}
	id := jr.ID
	// Wait until the worker has the job (or it finished — then the restart
	// exercises result rehydration instead of checkpoint resume; both are
	// contract paths), then restart mid-flight.
	if _, err := pollJob(base, id, 10*time.Second); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		cancel()
		return fmt.Errorf("durable drain: %w", err)
	}
	err = httpSrv.Shutdown(ctx)
	cancel()
	if err != nil {
		return err
	}

	srv, httpSrv, base, err = boot()
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		httpSrv.Shutdown(ctx)
	}()
	end := time.Now().Add(60 * time.Second)
	for {
		jr, err = pollJob(base, id, 60*time.Second)
		if err != nil {
			return fmt.Errorf("after restart: %w", err)
		}
		if jr.Status == service.JobDone || jr.Status == service.JobFailed {
			break
		}
		if time.Now().After(end) {
			return fmt.Errorf("job %s still %s after restart", id, jr.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if jr.Status != service.JobDone {
		return fmt.Errorf("job %s after restart: %s (%s)", id, jr.Status, jr.Error)
	}
	var m service.MatrixResult
	if err := json.Unmarshal(jr.Result, &m); err != nil {
		return err
	}
	if !m.Complete {
		return fmt.Errorf("recovered job %s is incomplete (%d/%d pairs)", id, m.DecidedPairs, m.TotalPairs)
	}
	var snap service.Snapshot
	mresp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	err = json.NewDecoder(mresp.Body).Decode(&snap)
	mresp.Body.Close()
	if err != nil {
		return err
	}
	if snap.Counters[service.MetricJournalReplayRecords] < 2 {
		return fmt.Errorf("restart replayed %d journal records, want >= 2",
			snap.Counters[service.MetricJournalReplayRecords])
	}
	return nil
}
