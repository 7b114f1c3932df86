// Package service implements eventorderd, a resident HTTP/JSON analysis
// server over the exact event-ordering engine. The paper proves every
// relation query (co-)NP-hard, which makes the workload long-running,
// cache-friendly, and deadline-sensitive — exactly the shape a one-shot
// CLI serves worst. The server amortizes that cost three ways:
//
//   - a bounded worker-pool job scheduler (N workers, each running jobs on
//     private core.Analyzer instances, mirroring the S22 parallel path;
//     a job the polynomial planner fully decides runs on its request's
//     goroutine instead, since it never searches);
//   - a content-addressed result cache (LRU with a byte budget) keyed by a
//     canonical hash of the execution plus the query options, so repeated
//     queries — the common case for interactive debugging — skip the
//     exponential search entirely;
//   - per-request deadlines threaded as context.Context into the core
//     search loops, so an abandoned request stops burning CPU — and, for
//     matrix queries, an anytime contract: a deadline or budget that
//     strikes mid-analysis yields 200 with "complete": false, every
//     verdict decided so far, and a checkpoint the client resumes via the
//     request's resume field (partial results never enter the cache).
//
// Endpoints: POST /v1/analyze (single pair or full relation matrices),
// POST /v1/races, POST /v1/witness, GET /v1/jobs/{id} (async polling),
// GET /healthz, GET /metrics (expvar-style JSON registry).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eventorder/internal/core"
	"eventorder/internal/interp"
	"eventorder/internal/journal"
	"eventorder/internal/lang"
	"eventorder/internal/model"
	"eventorder/internal/plan"
	"eventorder/internal/race"
	blobstore "eventorder/internal/store"
	"eventorder/internal/traceio"
	"eventorder/internal/vfs"
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of analysis worker goroutines (default
	// GOMAXPROCS). The worker pool bounds concurrent searches: each job
	// builds its own core.Analyzer (the engine is single-threaded), so
	// Workers bounds the live searching analyzers. A job the planner fully
	// decides takes no worker: it runs on its request's goroutine, because
	// it never searches.
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (default 64).
	// Submissions beyond it are rejected with 429 + Retry-After rather
	// than queued without bound — load-shedding for a server of
	// exponential queries.
	QueueDepth int
	// ShedDepth is the queue occupancy at which load shedding engages
	// (default 3/4 of QueueDepth, minimum 1): while the queue holds at
	// least this many jobs, anytime (matrix) requests bound for it get
	// their deadline clamped to ShedTimeout, so they answer quickly with
	// a partial result and a resumable checkpoint instead of deepening
	// the backlog. Set it above QueueDepth to disable shedding.
	ShedDepth int
	// ShedTimeout is the clamped deadline shed mode applies (default
	// 200ms).
	ShedTimeout time.Duration
	// PartialGrace is how long a synchronous handler waits past the
	// request deadline for an interrupted anytime analysis to surface its
	// partial result (default 2s). The search aborts at its next
	// cancellation poll, so the wait is normally microseconds once the
	// job runs; the grace must cover the residual queue wait of a job
	// whose deadline struck while still queued — size it above
	// QueueDepth × ShedTimeout if storms of tiny-deadline requests are
	// expected.
	PartialGrace time.Duration
	// CacheBytes is the result cache budget in bytes (default 32 MiB).
	CacheBytes int64
	// DefaultTimeout applies to requests that set no timeoutMs
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 5m).
	MaxTimeout time.Duration
	// MaxNodes is the default per-query search node budget when a request
	// sets none; 0 means unbounded.
	MaxNodes int64
	// MaxBudget caps client-requested search budgets (0 = no cap).
	// Requests exceeding it are clamped to it.
	MaxBudget int64
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxJobs bounds retained async jobs for polling (default 1024).
	MaxJobs int
	// StateDir enables crash-safe durability: async-job lifecycle records
	// go to a write-ahead journal under <StateDir>/journal, result bodies
	// and drain checkpoints to a blob store under <StateDir>/blobs, and
	// startup replays the journal — rehydrating finished jobs and the
	// result cache, and re-enqueueing unfinished jobs from their latest
	// checkpoint. Empty (the default) keeps all state in memory.
	StateDir string
	// StateFS overrides the filesystem the durability layer writes
	// through (tests inject a crash-simulating in-memory FS; nil means
	// the real filesystem).
	StateFS vfs.FS
	// DrainCheckpoint is how long Shutdown lets in-flight anytime jobs
	// keep running before canceling them so they surface resumable
	// partial results (journaled as "checkpointed" and resumed on the
	// next boot). Default 1s; negative disables the cancellation (drain
	// waits for natural completion, as before durability).
	DrainCheckpoint time.Duration
	// JournalSegmentBytes overrides the journal's segment rotation
	// threshold (default 4 MiB; tests shrink it to force rotation).
	JournalSegmentBytes int64
	// Logger receives structured request logs (default: JSON to stderr).
	Logger *slog.Logger
}

func (c *Config) withDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ShedDepth <= 0 {
		c.ShedDepth = max(1, c.QueueDepth*3/4)
	}
	if c.ShedTimeout <= 0 {
		c.ShedTimeout = 200 * time.Millisecond
	}
	if c.PartialGrace <= 0 {
		c.PartialGrace = 2 * time.Second
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 32 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.DrainCheckpoint == 0 {
		c.DrainCheckpoint = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
}

// Server is the eventorderd analysis service. Create with New, mount
// Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg     Config
	log     *slog.Logger
	mux     *http.ServeMux
	metrics *Registry
	cache   *resultCache
	store   *jobStore

	jobs        chan *job
	queueDepth  *Gauge
	jobsRunning *Gauge
	workerWG    sync.WaitGroup

	shutdownMu sync.Mutex
	closed     bool

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// Durability (nil / inert without Config.StateDir; see durability.go).
	jrnl             *journal.Journal
	blobs            *blobstore.Store
	recoveryWG       sync.WaitGroup
	closeJournalOnce sync.Once
	// draining flips when Shutdown begins; asyncOnDone uses it to tell a
	// drain-clipped partial (journal "checkpointed", resume next boot)
	// from a client-requested one (terminal).
	draining atomic.Bool
	// drainCtx cancels in-flight anytime jobs once Shutdown's checkpoint
	// grace (Config.DrainCheckpoint) expires.
	drainCtx    context.Context
	drainCancel context.CancelFunc
}

// New builds a Server and starts its worker pool. With Config.StateDir
// set it also replays the write-ahead journal — restoring finished async
// jobs, re-enqueueing unfinished ones from their latest checkpoint, and
// rehydrating the result cache; the error return is reserved for a state
// directory that cannot be opened or replayed.
func New(cfg Config) (*Server, error) {
	cfg.withDefaults()
	m := NewRegistry()
	s := &Server{
		cfg:         cfg,
		log:         cfg.Logger,
		mux:         http.NewServeMux(),
		metrics:     m,
		cache:       newResultCache(cfg.CacheBytes, m),
		store:       newJobStore(cfg.MaxJobs),
		jobs:        make(chan *job, cfg.QueueDepth),
		queueDepth:  m.Gauge(MetricQueueDepth),
		jobsRunning: m.Gauge(MetricJobsRunning),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.preregisterMetrics()
	s.mux.HandleFunc("POST /v1/analyze", s.instrument("analyze", s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/races", s.instrument("races", s.handleRaces))
	s.mux.HandleFunc("POST /v1/witness", s.instrument("witness", s.handleWitness))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJobGet))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	// After the workers: recovery re-enqueues journaled jobs into the
	// live queue.
	if err := s.initDurability(); err != nil {
		s.baseCancel()
		s.drainCancel()
		_ = s.Shutdown(context.Background())
		return nil, err
	}
	return s, nil
}

// preregisterMetrics touches every metric name the server can emit so
// /metrics exposes the full inventory from the first scrape. Dashboards
// and the schema golden test depend on the name set being a property of
// the build, not of which code paths happened to run.
func (s *Server) preregisterMetrics() {
	for _, name := range []string{
		MetricCacheHits, MetricCacheMisses, MetricCacheEvictions,
		MetricJobsRejected, MetricJobsCompleted, MetricJobsDeadline,
		MetricJobsThrottled, MetricJobsShed, MetricJobsFastLane,
		MetricMemoGrows, MetricAnalyzePartial, MetricAnalyzeResumed,
		MetricSymmCollapses,
		MetricJournalReplayRecords, MetricJournalCorruptFrames,
		MetricJournalRecords, MetricJobsRecovered,
		MetricJobsDrainCheckpointed, MetricStoreRehydrated,
	} {
		s.metrics.Counter(name)
	}
	for t := plan.TierStatic; t <= plan.TierExact; t++ {
		s.metrics.Counter(MetricPlanPairs + "_" + t.String())
	}
	for _, name := range []string{
		MetricQueueDepth, MetricJobsRunning, MetricCacheBytes,
		MetricCacheEntries, MetricMemoEntries, MetricMemoBytes,
		MetricMemoLoadPermille, MetricSymmClasses, MetricShedMode,
		MetricJournalSegments,
	} {
		s.metrics.Gauge(name)
	}
	for _, endpoint := range []string{"analyze", "races", "witness", "jobs", "healthz", "metrics"} {
		s.metrics.Counter(MetricRequests + "_" + endpoint)
		s.metrics.Histogram(MetricLatency+"_"+endpoint, latencyBounds)
	}
	for _, lane := range []string{LaneFast, LaneHeavy} {
		s.metrics.Histogram(MetricQueueWait+"_"+lane, queueWaitBounds)
	}
	s.metrics.Histogram(MetricExploredNodes, nodeBounds)
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's metrics registry (for embedding and tests).
func (s *Server) Metrics() *Registry { return s.metrics }

// Shutdown drains the server: new submissions are rejected with 503,
// queued and running jobs (planner-decided ones running on their
// request's goroutine included) finish, then workers exit. After
// Config.DrainCheckpoint, still-running anytime jobs are canceled so
// they surface resumable partial results instead of holding the drain
// open — with a state dir those partials are journaled as "checkpointed"
// and the next boot resumes them, so drain throws away no search work.
// If ctx expires first, all running jobs are force-canceled (their
// searches abort at the next cancellation poll) and Shutdown returns
// ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.shutdownMu.Lock()
	if !s.closed {
		s.closed = true
		// Safe: submissions only send while holding shutdownMu with
		// closed=false.
		close(s.jobs)
	}
	s.shutdownMu.Unlock()
	var drainTimer *time.Timer
	if s.cfg.DrainCheckpoint > 0 {
		drainTimer = time.AfterFunc(s.cfg.DrainCheckpoint, s.drainCancel)
	}
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	defer func() {
		if drainTimer != nil {
			drainTimer.Stop()
		}
		s.finishDurability()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Wire types ----------------------------------------------------------------

// SchemaVersion is the wire schema generation stamped on every /v1
// response envelope. Version 2 introduced the anytime analysis surface:
// three-valued verdicts as string enums, partial matrix results with
// "complete": false served as 200 instead of 504, resumable checkpoints,
// and job progress on GET /v1/jobs/{id}.
const SchemaVersion = 2

// Verdict is the three-valued relation answer carried by v2 responses,
// JSON-encoded as "true", "false", or "unknown".
type Verdict = core.Verdict

// Verdict values.
const (
	VerdictUnknown = core.VerdictUnknown
	VerdictFalse   = core.VerdictFalse
	VerdictTrue    = core.VerdictTrue
)

// ExecutionSource selects the execution under analysis: either a
// mini-language program to run into a trace, or a serialized trace in the
// traceio wire format.
type ExecutionSource struct {
	// Program is mini-language source; the server runs it (deadlock-
	// avoiding, seeded) and analyzes the recorded execution.
	Program string `json:"program,omitempty"`
	// Execution is a trace in the traceio JSON format, as produced by
	// `eventorder run` or a previous server response.
	Execution json.RawMessage `json:"execution,omitempty"`
	// Seed seeds the program scheduler (default 1). Ignored with
	// Execution.
	Seed int64 `json:"seed,omitempty"`
	// Tries bounds deadlock-avoiding rescheduling attempts (default 64,
	// at most 256).
	Tries int `json:"tries,omitempty"`

	// decoded is Execution as the request body's one-pass decode already
	// decoded it, so resolveExecution does not decode it again. It is nil
	// whenever that path did not run, as after a journal replay.
	decoded *model.Execution
}

// maxTries is the largest ExecutionSource.Tries a request may ask for;
// larger values are rejected with 400. Each try is a full interpreter run
// in the request handler, before admission and outside the request
// deadline, so a program that always deadlocks costs up to maxTries runs.
const maxTries = 256

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	ExecutionSource
	// Rel names the relation (MHB CHB MCW CCW MOW COW, case-insensitive).
	// With A and B it selects a single pair query; with All (or alone) a
	// full matrix. Empty Rel with All computes all six matrices.
	Rel string `json:"rel,omitempty"`
	// A and B are event labels for a single pair query.
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// All requests full relation matrices.
	All bool `json:"all,omitempty"`
	// IgnoreData drops the shared-data-dependence constraints (the
	// Section 5.3 feasibility notion).
	IgnoreData bool `json:"ignoreData,omitempty"`
	// Budget bounds search nodes per query (0 = server default; capped by
	// the server's maximum). For matrix queries it bounds the batch
	// engine's total distinct states expanded.
	Budget int64 `json:"budget,omitempty"`
	// Tiers caps the planner cascade for matrix queries: 0 (default)
	// runs every polynomial tier, 1..3 run only the first so many, and
	// -1 disables the planner (exact-only, no bracket). Ignored for pair
	// queries. Verdicts do not depend on it — only the work split and the
	// plan summary do.
	Tiers int `json:"tiers,omitempty"`
	// TimeoutMs is the request deadline in milliseconds (0 = server
	// default; capped by the server's maximum). A matrix query whose
	// deadline strikes mid-analysis answers 200 with "complete": false
	// and every verdict decided so far, plus a resumable checkpoint.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Async submits the work as a pollable job: the response carries a
	// job id for GET /v1/jobs/{id} instead of the result.
	Async bool `json:"async,omitempty"`
	// Resume continues an interrupted matrix analysis from the
	// checkpoint a previous partial response carried (the base64 string
	// under "checkpoint"). The execution and ignoreData setting must
	// match the original request; budget is charged cumulatively across
	// attempts, so resubmitting with a larger budget continues rather
	// than restarts. Only meaningful for matrix queries; resumed
	// requests bypass the result cache in both directions. A malformed
	// or mismatched checkpoint is rejected with 422.
	Resume string `json:"resume,omitempty"`
}

// RacesRequest is the body of POST /v1/races.
type RacesRequest struct {
	ExecutionSource
	// IgnoreData, Budget, TimeoutMs, Async: as in AnalyzeRequest.
	IgnoreData bool  `json:"ignoreData,omitempty"`
	Budget     int64 `json:"budget,omitempty"`
	TimeoutMs  int64 `json:"timeoutMs,omitempty"`
	Async      bool  `json:"async,omitempty"`
}

// WitnessRequest is the body of POST /v1/witness.
type WitnessRequest struct {
	ExecutionSource
	// Rel, A, B name the relation and event pair to demonstrate.
	Rel string `json:"rel"`
	A   string `json:"a"`
	B   string `json:"b"`
	// IgnoreData, Budget, TimeoutMs, Async: as in AnalyzeRequest.
	IgnoreData bool  `json:"ignoreData,omitempty"`
	Budget     int64 `json:"budget,omitempty"`
	TimeoutMs  int64 `json:"timeoutMs,omitempty"`
	Async      bool  `json:"async,omitempty"`
}

// Envelope wraps every synchronous analysis response.
type Envelope struct {
	// SchemaVersion stamps the wire schema generation (currently 2).
	SchemaVersion int `json:"schemaVersion"`
	// RequestID is the server-minted request ID (also in the X-Request-Id
	// header); the server's structured log lines for this request carry
	// the same value under "rid".
	RequestID string `json:"requestId"`
	// Cached reports whether the result was served from the result cache
	// (no search ran for this request).
	Cached bool `json:"cached"`
	// ElapsedMs is wall time spent serving this request.
	ElapsedMs float64 `json:"elapsedMs"`
	// Trace carries the request's lane, queue wait, and span timings.
	Trace *TraceInfo `json:"trace,omitempty"`
	// Result is the endpoint-specific payload (PairResult, MatrixResult,
	// RacesResult, or WitnessResult).
	Result json.RawMessage `json:"result"`
}

// PairResult answers a single-pair relation query.
type PairResult struct {
	// Rel, A, B echo the canonicalized query.
	Rel string `json:"rel"`
	A   string `json:"a"`
	B   string `json:"b"`
	// Verdict is the three-valued answer ("true" or "false" here — a
	// pair query either finishes or errors, so "unknown" never appears).
	Verdict Verdict `json:"verdict"`
	// Nodes is the search effort spent.
	Nodes int64 `json:"nodes"`
}

// MatrixResult answers a full-matrix query, completely or partially.
type MatrixResult struct {
	// Events names every event, indexed by event id.
	Events []string `json:"events"`
	// Complete reports whether every requested verdict is decided. A
	// partial result (deadline, cancellation, or budget exhaustion mid-
	// analysis) carries everything decided so far — sound: a partial
	// verdict never contradicts the completed analysis — plus a
	// checkpoint to resume from.
	Complete bool `json:"complete"`
	// Relations maps relation name to the pairs PROVEN to satisfy it
	// (event id pairs). On a complete result absence means proven false;
	// on a partial one consult Undecided to tell proven-false from open.
	Relations map[string][][2]int `json:"relations"`
	// Undecided maps relation name to the pairs the interrupted analysis
	// left open. Omitted when Complete.
	Undecided map[string][][2]int `json:"undecided,omitempty"`
	// DecidedPairs counts ordered event pairs whose every requested
	// verdict is decided; TotalPairs is n·(n−1).
	DecidedPairs int `json:"decidedPairs"`
	TotalPairs   int `json:"totalPairs"`
	// Checkpoint resumes the interrupted analysis: POST /v1/analyze the
	// same execution with "resume" set to this string (and, typically, a
	// larger budget or timeout). Omitted when Complete.
	Checkpoint *core.Checkpoint `json:"checkpoint,omitempty"`
	// Cause names why a partial analysis stopped ("deadline", "budget",
	// or "canceled"). Omitted when Complete.
	Cause string `json:"cause,omitempty"`
	// Expanded is the cumulative number of states the batch exploration
	// charged against its budget, including resumed-from attempts.
	Expanded int64 `json:"expanded"`
	// Nodes is the total search effort spent.
	Nodes int64 `json:"nodes"`
	// Plan summarizes the tiered planner's bracket for this query
	// (omitted on resumed runs — the seed travels in the checkpoint).
	Plan *PlanSummary `json:"plan,omitempty"`
}

// PlanTier is one polynomial tier's row in a PlanSummary.
type PlanTier struct {
	// Tier names the tier ("static", "observed", "dag").
	Tier string `json:"tier"`
	// PairsDecided counts event pairs whose every requested verdict
	// first became derivable at this tier.
	PairsDecided int `json:"pairsDecided"`
	// FactsDecided counts primitive interval facts the tier newly
	// proved or refuted.
	FactsDecided int `json:"factsDecided"`
	// EventsScanned, Rounds, OrderedPairs report the tier's effort and
	// the size of its underlying polynomial relation.
	EventsScanned int `json:"eventsScanned"`
	Rounds        int `json:"rounds"`
	OrderedPairs  int `json:"orderedPairs"`
}

// PlanSummary reports how the polynomial pre-solver cascade bracketed a
// matrix query before the exact engine ran.
type PlanSummary struct {
	// TotalPairs is the number of ordered event pairs, n·(n−1).
	TotalPairs int `json:"totalPairs"`
	// ResiduePairs is how many pairs were left to the exact engine.
	ResiduePairs int `json:"residuePairs"`
	// Tiers holds one row per executed polynomial tier, in cascade
	// order (empty when the planner was disabled).
	Tiers []PlanTier `json:"tiers,omitempty"`
}

// RacePair is one candidate or confirmed race in a RacesResult.
type RacePair struct {
	// A and B are the event ids; AName/BName their display names.
	A     int    `json:"a"`
	B     int    `json:"b"`
	AName string `json:"aName"`
	BName string `json:"bName"`
	// Var is the shared variable witnessing the conflict.
	Var string `json:"var"`
}

// RacesResult reports all three race detectors.
type RacesResult struct {
	// Candidates is the conflicting-pair universe; Exact the CCW-
	// confirmed races; VC and PO the vector-clock and program-order
	// apparent races.
	Candidates []RacePair `json:"candidates"`
	Exact      []RacePair `json:"exact"`
	VC         []RacePair `json:"vc"`
	PO         []RacePair `json:"po"`
	// Nodes is the search effort the exact detector spent.
	Nodes int64 `json:"nodes"`
}

// WitnessResult carries a demonstrating schedule for a relation verdict.
type WitnessResult struct {
	// Rel, A, B echo the query; Verdict is the three-valued answer
	// ("unknown" never appears — a witness query either finishes or
	// errors).
	Rel     string  `json:"rel"`
	A       string  `json:"a"`
	B       string  `json:"b"`
	Verdict Verdict `json:"verdict"`
	// Steps is the action-level schedule with event begin/end boundaries
	// (empty when no schedule accompanies the verdict).
	Steps []string `json:"steps,omitempty"`
}

// JobProgress reports an async matrix job's anytime progress: how many
// ordered pairs are fully decided, and whether the stored result carries
// a checkpoint that a resume request can continue with a larger budget.
type JobProgress struct {
	// Complete mirrors the stored MatrixResult's Complete flag.
	Complete bool `json:"complete"`
	// DecidedPairs / TotalPairs measure anytime progress.
	DecidedPairs int `json:"decidedPairs"`
	TotalPairs   int `json:"totalPairs"`
	// Expanded is the cumulative explored-state count.
	Expanded int64 `json:"expanded"`
	// Resumable reports whether the result body carries a checkpoint.
	Resumable bool `json:"resumable"`
}

// JobResponse is returned by async submissions and job polls.
type JobResponse struct {
	// SchemaVersion stamps the wire schema generation (currently 2).
	SchemaVersion int `json:"schemaVersion"`
	// RequestID identifies the HTTP request that produced this response
	// (the submission and each poll mint their own).
	RequestID string `json:"requestId,omitempty"`
	// ID is the pollable job id.
	ID string `json:"id"`
	// Status is the job lifecycle state.
	Status JobState `json:"status"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Result is set for done jobs.
	Result json.RawMessage `json:"result,omitempty"`
	// Progress is set for done matrix jobs; a done-but-incomplete job's
	// Result carries a checkpoint to continue from (POST /v1/analyze
	// with resume and a larger budget).
	Progress *JobProgress `json:"progress,omitempty"`
}

// errorResponse is the JSON error body.
type errorResponse struct {
	// SchemaVersion stamps the wire schema generation (currently 2).
	SchemaVersion int `json:"schemaVersion"`
	// RequestID is the server-minted request ID for log correlation.
	RequestID string `json:"requestId,omitempty"`
	// Error is the human-readable failure.
	Error string `json:"error"`
}

// Handlers ------------------------------------------------------------------

var latencyBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request tracing (a minted request ID in
// the X-Request-Id header and the request context), request counting,
// latency observation, and structured logging keyed by the request ID.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := &tracer{id: newRequestID()}
		w.Header().Set("X-Request-Id", tr.id)
		r = r.WithContext(withTracer(r.Context(), tr))
		s.metrics.Counter(MetricRequests + "_" + endpoint).Add(1)
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(sr, r)
		elapsed := time.Since(start)
		s.metrics.Histogram(MetricLatency+"_"+endpoint, latencyBounds).Observe(elapsed.Seconds())
		fields := append(tr.logFields(),
			"method", r.Method,
			"path", r.URL.Path,
			"status", sr.status,
			"durMs", ms(elapsed),
			"remote", r.RemoteAddr,
		)
		s.log.Info("request", fields...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the JSON error body, stamped with the request's ID so
// the client can hand operators a greppable handle even on failures.
func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, status, errorResponse{
		SchemaVersion: SchemaVersion,
		RequestID:     tracerFrom(r.Context()).id,
		Error:         err.Error(),
	})
}

// statusFor maps a job computation error to an HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrBudget):
		return http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrBadCheckpoint):
		return http.StatusUnprocessableEntity
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// resolveExecution materializes the execution under analysis and its
// canonical content digest.
func resolveExecution(src *ExecutionSource) (*model.Execution, string, error) {
	var x *model.Execution
	switch {
	case src.Program != "" && src.Execution != nil:
		return nil, "", fmt.Errorf("service: give either program or execution, not both")
	case src.Program != "":
		if src.Tries > maxTries {
			return nil, "", fmt.Errorf("service: tries %d exceeds the maximum of %d", src.Tries, maxTries)
		}
		prog, err := lang.Parse(src.Program)
		if err != nil {
			return nil, "", err
		}
		seed := src.Seed
		if seed == 0 {
			seed = 1
		}
		tries := src.Tries
		if tries <= 0 {
			tries = 64
		}
		res, err := interp.RunAvoidingDeadlock(prog, tries, seed)
		if err != nil {
			return nil, "", err
		}
		x = res.X
	case src.decoded != nil:
		x = src.decoded
	case src.Execution != nil:
		var err error
		x, err = traceio.LoadExecution(bytes.NewReader(src.Execution))
		if err != nil {
			return nil, "", err
		}
	default:
		return nil, "", fmt.Errorf("service: request needs a program or an execution")
	}
	return x, executionDigest(x), nil
}

func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

func (s *Server) nodeBudget(b int64) int64 {
	if b <= 0 {
		b = s.cfg.MaxNodes
	}
	if s.cfg.MaxBudget > 0 && (b <= 0 || b > s.cfg.MaxBudget) {
		b = s.cfg.MaxBudget
	}
	return b
}

// matrixLimits is the server-side clamp configuration handed to
// core.MatrixOpts.Normalize — the one place matrix knob defaults and caps
// are applied (the CLIs and bench share the same path).
func (s *Server) matrixLimits() core.MatrixLimits {
	return core.MatrixLimits{MaxBudget: s.cfg.MaxBudget}
}

// dispatchOpts parameterizes one dispatch: the cache key (empty disables
// the cache in both directions — resume requests are inherently
// stateful), async vs synchronous delivery, the anytime flag (runs that
// return a partial result with value under a dead context execute even
// when the deadline passed while queued), the client deadline, and the
// admission-control lane (LaneFast runs the job on the submitting
// goroutine; anything else queues it for the worker pool).
type dispatchOpts struct {
	key       string
	async     bool
	anytime   bool
	timeoutMs int64
	lane      string
	run       func(ctx context.Context) (jobOutput, error)
	// endpoint and reqJSON identify the request for the write-ahead
	// journal ("analyze"/"races"/"witness" plus the canonical request
	// body); reqJSON is only populated for async submissions on a durable
	// server — the only case that journals.
	endpoint string
	reqJSON  json.RawMessage
	// tracer receives the job's queue wait and phase spans (the request's
	// tracer on the HTTP path, a no-op one during crash recovery).
	tracer *tracer
}

// rejectSubmit maps an admission failure to its wire response: 429 with a
// Retry-After hint for a full queue, 503 for a draining server.
func (s *Server) rejectSubmit(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, errQueueFull) {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, r, statusFor(err), err)
}

// dispatch runs one analysis job through the queue: cache lookup, then
// either synchronous submit-and-wait or async submit-and-return-id.
// o.run must honor its context; its output body is cached under o.key
// when the output says so (complete results only).
//
// Load shedding: when the queue is at or past the shed depth, an anytime
// request bound for the worker pool gets its deadline clamped to the shed
// timeout — it still runs, but answers quickly with a partial result and
// a resumable checkpoint instead of deepening the backlog. Planner-decided
// and non-anytime requests are never shed (the former are polynomial and
// never queue, the latter have no partial result to degrade to).
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, o dispatchOpts) {
	start := time.Now()
	tr := tracerFrom(r.Context())
	if o.key != "" {
		if body, ok := s.cache.get(o.key); ok {
			tr.setLane(LaneCache)
			writeJSON(w, http.StatusOK, Envelope{
				SchemaVersion: SchemaVersion,
				RequestID:     tr.id,
				Cached:        true,
				ElapsedMs:     ms(time.Since(start)),
				Trace:         tr.info(),
				Result:        body,
			})
			return
		}
	}
	lane := o.lane
	if lane != LaneFast {
		lane = LaneHeavy
	}
	tr.setLane(lane)
	timeout := s.timeout(o.timeoutMs)
	if o.anytime && lane == LaneHeavy && len(s.jobs) >= s.cfg.ShedDepth {
		s.metrics.Gauge(MetricShedMode).Set(1)
		s.metrics.Counter(MetricJobsShed).Add(1)
		tr.setShed()
		if timeout > s.cfg.ShedTimeout {
			timeout = s.cfg.ShedTimeout
		}
	} else if o.anytime {
		s.metrics.Gauge(MetricShedMode).Set(0)
	}
	o.lane = lane

	if o.async {
		sj := s.store.add()
		// Durability ordering: the "accepted" record is on disk before the
		// 202 leaves — an acknowledged job is always recoverable. A wedged
		// journal refuses the work instead.
		if err := s.journalAccepted(sj.id, o.endpoint, o.reqJSON); err != nil {
			sj.set(JobFailed, nil, err.Error())
			writeError(w, r, http.StatusServiceUnavailable,
				fmt.Errorf("service: cannot journal the job; refusing to acknowledge it: %w", err))
			return
		}
		j := s.buildAsyncJob(sj, o, timeout)
		if err := s.submit(j); err != nil {
			j.cancel()
			sj.set(JobFailed, nil, err.Error())
			s.journalRecord(jobRecord{T: "failed", ID: sj.id, Err: err.Error()})
			s.rejectSubmit(w, r, err)
			return
		}
		// A planner-decided job has already run inside submit, so report
		// the stored state rather than assume it is still queued.
		state, _, _, _ := sj.snapshot()
		writeJSON(w, http.StatusAccepted, JobResponse{SchemaVersion: SchemaVersion, RequestID: tr.id, ID: sj.id, Status: state})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// Forced shutdown must also cancel in-flight synchronous jobs.
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	if o.anytime {
		// Drain checkpointing clips synchronous anytime jobs too: the
		// client gets its partial (with a resume token) instead of holding
		// the drain open.
		stopDrain := context.AfterFunc(s.drainCtx, cancel)
		defer stopDrain()
	}
	j := &job{
		ctx:    ctx,
		cancel: func() {}, // handler owns the sync job's context
		run:    o.run,
		onDone: func(out jobOutput, err error) {
			if err == nil {
				s.cacheStore(o.key, out)
			}
		},
		anytime: o.anytime,
		lane:    lane,
		tracer:  tr,
		done:    make(chan struct{}),
	}
	if err := s.submit(j); err != nil {
		s.rejectSubmit(w, r, err)
		return
	}
	serve := func() {
		if j.err != nil {
			writeError(w, r, statusFor(j.err), j.err)
			return
		}
		writeJSON(w, http.StatusOK, Envelope{
			SchemaVersion: SchemaVersion,
			RequestID:     tr.id,
			Cached:        false,
			ElapsedMs:     ms(time.Since(start)),
			Trace:         tr.info(),
			Result:        j.out.body,
		})
	}
	select {
	case <-j.done:
		serve()
	case <-ctx.Done():
		// The deadline struck mid-job. An anytime analysis returns a
		// partial result with value instead of an error, so give the job
		// a grace period to surface it — a partial matrix answers 200
		// with "complete": false where v1 answered 504. The grace also
		// covers the residual queue wait of a job whose deadline struck
		// while still queued (see Config.PartialGrace).
		select {
		case <-j.done:
			serve()
		case <-time.After(s.cfg.PartialGrace):
			writeError(w, r, statusFor(ctx.Err()), fmt.Errorf("service: %w", ctx.Err()))
		}
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	o, err := s.prepareAnalyze(&req, tracerFrom(r.Context()))
	if err != nil {
		writeError(w, r, prepareStatus(err), err)
		return
	}
	s.dispatch(w, r, o)
}

// prepareStatus maps a prepare-time failure to its HTTP status: a bad or
// mismatched resume checkpoint is the client's 422 (the request parsed;
// its checkpoint is unprocessable); everything else is a plain 400.
func prepareStatus(err error) int {
	if errors.Is(err, core.ErrBadCheckpoint) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// journalBody marshals a request for the write-ahead journal — only when
// this submission will actually journal (async on a durable server), so
// synchronous requests never pay the copy.
func (s *Server) journalBody(async bool, req any) (json.RawMessage, error) {
	if !async || !s.durable() {
		return nil, nil
	}
	return json.Marshal(req)
}

// prepareAnalyze validates an analyze request and compiles it into a
// dispatchable job. Shared by the HTTP handler and crash recovery —
// errors are returned, not written, so each caller can map them to its
// own surface (HTTP status vs failed journaled job).
func (s *Server) prepareAnalyze(req *AnalyzeRequest, tr *tracer) (dispatchOpts, error) {
	reqJSON, err := s.journalBody(req.Async, req)
	if err != nil {
		return dispatchOpts{}, err
	}
	var x *model.Execution
	var digest string
	err = tr.timePhase("resolve", func() error {
		var rerr error
		x, digest, rerr = resolveExecution(&req.ExecutionSource)
		return rerr
	})
	if err != nil {
		return dispatchOpts{}, err
	}

	var kinds []core.RelKind
	if req.Rel != "" {
		kind, err := core.ParseRelKind(req.Rel)
		if err != nil {
			return dispatchOpts{}, err
		}
		kinds = []core.RelKind{kind}
	}

	// The resume token decodes on the request path so a malformed or
	// oversized one is rejected before any work is queued (422, per
	// core.ErrBadCheckpoint; structural validation against the execution
	// happens in the engine).
	var resume *core.Checkpoint
	if req.Resume != "" {
		resume, err = core.DecodeCheckpointString(req.Resume)
		if err != nil {
			return dispatchOpts{}, err
		}
	}

	// Out-of-range resource knobs (budget, tiers) are clamped by
	// core.MatrixOpts.Normalize rather than rejected: they are hints, not
	// semantics — verdicts are identical at every setting.
	pairQuery := req.A != "" || req.B != ""
	opts := core.Options{IgnoreData: req.IgnoreData, MaxNodes: s.nodeBudget(req.Budget)}

	if pairQuery {
		if req.A == "" || req.B == "" || len(kinds) != 1 || req.All {
			return dispatchOpts{}, fmt.Errorf("service: a pair query needs rel, a, and b (and no all)")
		}
		ea, ok := x.EventByLabel(req.A)
		if !ok {
			return dispatchOpts{}, fmt.Errorf("service: no event labeled %q (have %v)", req.A, x.Labels())
		}
		eb, ok := x.EventByLabel(req.B)
		if !ok {
			return dispatchOpts{}, fmt.Errorf("service: no event labeled %q (have %v)", req.B, x.Labels())
		}
		if ea == eb {
			return dispatchOpts{}, fmt.Errorf("service: a and b must name distinct events (both are %q)", req.A)
		}
		kind := kinds[0]
		// Labels are client strings that may contain '|', so they are
		// quoted to keep the descriptor unambiguous.
		key := cacheKey(digest, fmt.Sprintf("analyze|pair|rel=%s|a=%q|b=%q|ignoreData=%t", kind, req.A, req.B, req.IgnoreData))
		return dispatchOpts{key: key, async: req.Async, timeoutMs: req.TimeoutMs, endpoint: "analyze", reqJSON: reqJSON, tracer: tr, run: func(ctx context.Context) (jobOutput, error) {
			an, err := core.New(x, opts)
			if err != nil {
				return jobOutput{}, err
			}
			var holds bool
			if err := tr.timePhase("decide", func() error {
				var derr error
				holds, derr = an.Decide(ctx, kind, ea.ID, eb.ID)
				return derr
			}); err != nil {
				return jobOutput{}, err
			}
			s.observeMemo(an)
			s.metrics.Histogram(MetricExploredNodes, nodeBounds).Observe(float64(an.Stats().Nodes))
			body, err := json.Marshal(PairResult{
				Rel: kind.String(), A: req.A, B: req.B,
				Verdict: core.VerdictOf(holds), Nodes: an.Stats().Nodes,
			})
			return jobOutput{body: body, cacheable: true, complete: true}, err
		}}, nil
	}

	// Matrix query: one relation, or all six when none was named.
	relDesc := "*"
	if len(kinds) == 1 {
		relDesc = kinds[0].String()
	} else {
		kinds = core.AllRelKinds
	}
	mopts := core.MatrixOpts{
		Budget: req.Budget,
		Tiers:  req.Tiers,
		Resume: resume,
	}
	mopts = mopts.Normalize(s.matrixLimits())
	// The engine reports its forward/backward sweep spans to the request
	// trace (the tracer is concurrency-safe; the job runs on a worker).
	mopts.OnPhase = tr.phase

	// Build the polynomial plan on the request path, not the worker: it
	// doubles as the admission controller's cost estimate. A plan with
	// zero residue means the cascade decided every pair — the job's cost
	// is polynomial and proven, so it runs on this goroutine instead of
	// queueing behind NP-hard searches. The finished plan is handed to the
	// job via AnalyzePlanned, so nothing is computed twice. Resumed runs
	// skip planning (the seed travels inside the checkpoint) and are
	// always heavy — a resume exists precisely because the query was hard.
	var built *plan.Plan
	lane := LaneHeavy
	if resume == nil {
		perr := tr.timePhase("plan", func() error {
			var berr error
			built, berr = plan.Build(x, kinds, plan.Options{IgnoreData: req.IgnoreData, Tiers: mopts.Tiers})
			return berr
		})
		if perr != nil {
			return dispatchOpts{}, perr
		}
		if built.Residue == 0 {
			lane = LaneFast
		}
	}
	// The cache key deliberately omits budget: a budget only decides
	// when a run stops, never what its completed verdicts say. Tiers IS part of the key — verdicts match at every
	// setting, but the plan summary in the payload does not. Resume
	// requests bypass the cache entirely: serving a cached plan-bearing
	// body for a resumed run would misreport provenance, and a partial
	// body must never be cached at all.
	key := cacheKey(digest, fmt.Sprintf("analyze|matrix|rel=%s|ignoreData=%t|tiers=%d", relDesc, req.IgnoreData, mopts.Tiers))
	if resume != nil {
		key = ""
		s.metrics.Counter(MetricAnalyzeResumed).Add(1)
	}
	return dispatchOpts{key: key, async: req.Async, anytime: true, timeoutMs: req.TimeoutMs, lane: lane, endpoint: "analyze", reqJSON: reqJSON, tracer: tr, run: func(ctx context.Context) (jobOutput, error) {
		res, err := plan.AnalyzePlanned(ctx, x, kinds, opts, mopts, built)
		if err != nil {
			return jobOutput{}, err
		}
		s.observeMemoStats(res.Stats)
		s.metrics.Histogram(MetricExploredNodes, nodeBounds).Observe(float64(res.Stats.Nodes))
		if res.Plan != nil {
			s.observePlan(res.Plan)
		}
		m := res.Matrix
		out := MatrixResult{
			Complete:     m.Complete,
			Relations:    map[string][][2]int{},
			DecidedPairs: m.DecidedPairs(),
			TotalPairs:   m.TotalPairs(),
			Expanded:     m.Expanded,
			Nodes:        res.Stats.Nodes,
		}
		for e := 0; e < x.NumEvents(); e++ {
			out.Events = append(out.Events, x.EventName(model.EventID(e)))
		}
		relPairs := func(rel *model.Relation) [][2]int {
			pairs := [][2]int{}
			for _, p := range rel.Pairs() {
				pairs = append(pairs, [2]int{int(p[0]), int(p[1])})
			}
			return pairs
		}
		for _, kind := range kinds {
			out.Relations[kind.String()] = relPairs(m.Relations[kind])
		}
		if !m.Complete {
			s.metrics.Counter(MetricAnalyzePartial).Add(1)
			out.Undecided = map[string][][2]int{}
			for _, kind := range kinds {
				out.Undecided[kind.String()] = relPairs(m.Undecided[kind])
			}
			out.Checkpoint = m.Checkpoint
			out.Cause = causeName(m.Cause)
		}
		if res.Plan != nil {
			out.Plan = planSummary(res.Plan)
		}
		body, err := json.Marshal(out)
		progress := &JobProgress{
			Complete:     m.Complete,
			DecidedPairs: out.DecidedPairs,
			TotalPairs:   out.TotalPairs,
			Expanded:     m.Expanded,
			Resumable:    m.Checkpoint != nil,
		}
		jo := jobOutput{body: body, cacheable: m.Complete && resume == nil, progress: progress, complete: m.Complete}
		if !m.Complete {
			jo.cause = out.Cause
			if m.Checkpoint != nil {
				if cs, cerr := m.Checkpoint.EncodeString(); cerr == nil {
					jo.checkpoint = cs
				}
			}
		}
		return jo, err
	}}, nil
}

// causeName renders an anytime interrupt cause for the wire.
func causeName(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrBudget):
		return "budget"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return err.Error()
}

// planSummary converts a plan into its wire form.
func planSummary(p *plan.Plan) *PlanSummary {
	out := &PlanSummary{TotalPairs: p.TotalPairs, ResiduePairs: p.Residue}
	for _, st := range p.Tiers {
		out.Tiers = append(out.Tiers, PlanTier{
			Tier:          st.Tier.String(),
			PairsDecided:  st.PairsDecided,
			FactsDecided:  st.FactsDecided,
			EventsScanned: st.EventsScanned,
			Rounds:        st.Rounds,
			OrderedPairs:  st.OrderedPairs,
		})
	}
	return out
}

// observePlan accumulates per-tier decided-pair counters across matrix
// jobs, making the planner's leverage visible on /metrics.
func (s *Server) observePlan(p *plan.Plan) {
	for _, st := range p.Tiers {
		s.metrics.Counter(MetricPlanPairs + "_" + st.Tier.String()).Add(int64(st.PairsDecided))
	}
	s.metrics.Counter(MetricPlanPairs + "_" + plan.TierExact.String()).Add(int64(p.Residue))
}

func (s *Server) handleRaces(w http.ResponseWriter, r *http.Request) {
	var req RacesRequest
	if !s.decode(w, r, &req) {
		return
	}
	o, err := s.prepareRaces(&req, tracerFrom(r.Context()))
	if err != nil {
		writeError(w, r, prepareStatus(err), err)
		return
	}
	s.dispatch(w, r, o)
}

// prepareRaces validates a races request and compiles it into a
// dispatchable job (shared by the HTTP handler and crash recovery).
func (s *Server) prepareRaces(req *RacesRequest, tr *tracer) (dispatchOpts, error) {
	reqJSON, err := s.journalBody(req.Async, req)
	if err != nil {
		return dispatchOpts{}, err
	}
	var x *model.Execution
	var digest string
	err = tr.timePhase("resolve", func() error {
		var rerr error
		x, digest, rerr = resolveExecution(&req.ExecutionSource)
		return rerr
	})
	if err != nil {
		return dispatchOpts{}, err
	}
	opts := core.Options{IgnoreData: req.IgnoreData, MaxNodes: s.nodeBudget(req.Budget)}
	key := cacheKey(digest, fmt.Sprintf("races|ignoreData=%t", req.IgnoreData))
	return dispatchOpts{key: key, async: req.Async, timeoutMs: req.TimeoutMs, endpoint: "races", reqJSON: reqJSON, tracer: tr, run: func(ctx context.Context) (jobOutput, error) {
		var rep *race.Report
		if err := tr.timePhase("detect", func() error {
			var derr error
			rep, derr = race.DetectCtx(ctx, x, opts)
			return derr
		}); err != nil {
			return jobOutput{}, err
		}
		s.metrics.Histogram(MetricExploredNodes, nodeBounds).Observe(float64(rep.Nodes))
		conv := func(pairs []race.Pair) []RacePair {
			out := []RacePair{}
			for _, p := range pairs {
				out = append(out, RacePair{
					A: int(p.A), B: int(p.B),
					AName: x.EventName(p.A), BName: x.EventName(p.B),
					Var: p.Var,
				})
			}
			return out
		}
		body, err := json.Marshal(RacesResult{
			Candidates: conv(rep.Candidates),
			Exact:      conv(rep.Exact),
			VC:         conv(rep.VC),
			PO:         conv(rep.PO),
			Nodes:      rep.Nodes,
		})
		return jobOutput{body: body, cacheable: true, complete: true}, err
	}}, nil
}

func (s *Server) handleWitness(w http.ResponseWriter, r *http.Request) {
	var req WitnessRequest
	if !s.decode(w, r, &req) {
		return
	}
	o, err := s.prepareWitness(&req, tracerFrom(r.Context()))
	if err != nil {
		writeError(w, r, prepareStatus(err), err)
		return
	}
	s.dispatch(w, r, o)
}

// prepareWitness validates a witness request and compiles it into a
// dispatchable job (shared by the HTTP handler and crash recovery).
func (s *Server) prepareWitness(req *WitnessRequest, tr *tracer) (dispatchOpts, error) {
	reqJSON, err := s.journalBody(req.Async, req)
	if err != nil {
		return dispatchOpts{}, err
	}
	var x *model.Execution
	var digest string
	err = tr.timePhase("resolve", func() error {
		var rerr error
		x, digest, rerr = resolveExecution(&req.ExecutionSource)
		return rerr
	})
	if err != nil {
		return dispatchOpts{}, err
	}
	kind, err := core.ParseRelKind(req.Rel)
	if err != nil {
		return dispatchOpts{}, err
	}
	ea, ok := x.EventByLabel(req.A)
	if !ok {
		return dispatchOpts{}, fmt.Errorf("service: no event labeled %q (have %v)", req.A, x.Labels())
	}
	eb, ok := x.EventByLabel(req.B)
	if !ok {
		return dispatchOpts{}, fmt.Errorf("service: no event labeled %q (have %v)", req.B, x.Labels())
	}
	if ea == eb {
		return dispatchOpts{}, fmt.Errorf("service: a and b must name distinct events (both are %q)", req.A)
	}
	opts := core.Options{IgnoreData: req.IgnoreData, MaxNodes: s.nodeBudget(req.Budget)}
	key := cacheKey(digest, fmt.Sprintf("witness|rel=%s|a=%q|b=%q|ignoreData=%t", kind, req.A, req.B, req.IgnoreData))
	return dispatchOpts{key: key, async: req.Async, timeoutMs: req.TimeoutMs, endpoint: "witness", reqJSON: reqJSON, tracer: tr, run: func(ctx context.Context) (jobOutput, error) {
		an, err := core.New(x, opts)
		if err != nil {
			return jobOutput{}, err
		}
		var wit core.Witness
		if err := tr.timePhase("witness", func() error {
			var werr error
			wit, werr = an.WitnessSchedule(ctx, kind, ea.ID, eb.ID)
			return werr
		}); err != nil {
			return jobOutput{}, err
		}
		s.observeMemo(an)
		s.metrics.Histogram(MetricExploredNodes, nodeBounds).Observe(float64(an.Stats().Nodes))
		body, err := json.Marshal(WitnessResult{
			Rel: kind.String(), A: req.A, B: req.B,
			Verdict: core.VerdictOf(wit.Holds),
			Steps:   core.FormatSteps(x, wit.Steps),
		})
		return jobOutput{body: body, cacheable: true, complete: true}, err
	}}, nil
}

// observeMemo exports a finished search job's completion-memo occupancy:
// the gauges sample the most recent job's table (each job owns a private
// analyzer), the grow counter accumulates across jobs. Together with the
// cache and queue metrics this makes memo-table pressure — the dominant
// memory consumer of a hard query — visible on /metrics.
func (s *Server) observeMemo(an *core.Analyzer) {
	s.observeMemoStats(an.Stats())
}

// observeMemoStats is observeMemo for callers that only hold the stats
// (the planned matrix path runs its analyzer inside plan.Analyze).
func (s *Server) observeMemoStats(st core.Stats) {
	s.metrics.Gauge(MetricMemoEntries).Set(int64(st.CompleteMemo))
	s.metrics.Gauge(MetricMemoBytes).Set(st.MemoBytes)
	s.metrics.Gauge(MetricMemoLoadPermille).Set(int64(st.MemoLoad * 1000))
	s.metrics.Counter(MetricMemoGrows).Add(st.MemoGrows)
	s.metrics.Gauge(MetricSymmClasses).Set(int64(st.SymmClasses))
	s.metrics.Counter(MetricSymmCollapses).Add(st.SymmCollapses)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sj, ok := s.store.get(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("service: no job %q", id))
		return
	}
	state, body, errs, progress := sj.snapshot()
	writeJSON(w, http.StatusOK, JobResponse{
		SchemaVersion: SchemaVersion,
		RequestID:     tracerFrom(r.Context()).id,
		ID:            id, Status: state, Error: errs,
		Result: body, Progress: progress,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.shutdownMu.Lock()
	draining := s.closed
	s.shutdownMu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":     status,
		"workers":    s.cfg.Workers,
		"queueDepth": s.queueDepth.Value(),
		"shedding":   len(s.jobs) >= s.cfg.ShedDepth,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}
