package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric names used by the server. Grouped here so tests and operators
// have one place to look; the registry itself is generic.
const (
	// MetricRequests counts HTTP requests per endpoint as
	// "requests_<endpoint>" (e.g. requests_analyze).
	MetricRequests = "requests"
	// MetricCacheHits counts analysis responses served from the result
	// cache without any search.
	MetricCacheHits = "cache_hits"
	// MetricCacheMisses counts analysis requests that had to run a job.
	MetricCacheMisses = "cache_misses"
	// MetricCacheEvictions counts cache entries dropped to respect the
	// byte budget.
	MetricCacheEvictions = "cache_evictions"
	// MetricJobsRejected counts jobs refused because the queue was full
	// or the server was shutting down.
	MetricJobsRejected = "jobs_rejected"
	// MetricJobsCompleted counts jobs whose computation finished
	// (successfully or with an error), freeing their worker.
	MetricJobsCompleted = "jobs_completed"
	// MetricJobsDeadline counts jobs abandoned because their deadline
	// passed or their client went away.
	MetricJobsDeadline = "jobs_deadline_exceeded"
	// MetricQueueDepth gauges jobs admitted but not yet finished
	// (queued + running). It returns to 0 when every worker is idle.
	MetricQueueDepth = "queue_depth"
	// MetricJobsRunning gauges jobs currently executing on a worker.
	MetricJobsRunning = "jobs_running"
	// MetricCacheBytes gauges the bytes currently held by the result
	// cache.
	MetricCacheBytes = "cache_bytes"
	// MetricCacheEntries gauges the number of cached results.
	MetricCacheEntries = "cache_entries"
	// MetricLatency is the request latency histogram, in seconds, as
	// "latency_seconds_<endpoint>".
	MetricLatency = "latency_seconds"
	// MetricMemoEntries gauges the completion-memo entries of the most
	// recently finished search job (each job builds a private analyzer, so
	// this is a per-job sample, not a global sum).
	MetricMemoEntries = "memo_entries"
	// MetricMemoBytes gauges the heap bytes held by that job's completion
	// memo arrays.
	MetricMemoBytes = "memo_bytes"
	// MetricMemoLoadPermille gauges the memo table's load factor ×1000
	// (gauges are integral).
	MetricMemoLoadPermille = "memo_load_permille"
	// MetricMemoGrows counts memo-table capacity doublings across all
	// finished jobs.
	MetricMemoGrows = "memo_grow_total"
	// MetricAnalyzePartial counts matrix analyses that ended as partial
	// anytime results (deadline, cancellation, or budget exhaustion
	// struck mid-exploration; the response carried a checkpoint).
	MetricAnalyzePartial = "analyze_partial"
	// MetricAnalyzeResumed counts matrix requests that continued from a
	// client-supplied checkpoint.
	MetricAnalyzeResumed = "analyze_resumed"
	// MetricPlanPairs counts, per planner tier, the event pairs whose
	// verdicts that tier decided across all matrix jobs, as
	// "plan_pairs_<tier>" (plan_pairs_static, plan_pairs_observed,
	// plan_pairs_dag, and plan_pairs_exact for the residue the
	// exponential engine had to settle).
	MetricPlanPairs = "plan_pairs"
	// MetricSymmClasses gauges the process-symmetry class count the most
	// recent analysis detected (0 when the trace has no provable
	// automorphisms or symmetry is disabled).
	MetricSymmClasses = "symm_classes"
	// MetricSymmCollapses counts state keys the symmetry canonicalizer
	// rewrote onto a smaller orbit representative across all finished
	// jobs — the raw volume of exploration the orbit collapse avoided.
	MetricSymmCollapses = "symm_collapse_total"
	// MetricQueueWait is the per-lane queue-wait histogram family, in
	// seconds, log-bucketed, as "queue_wait_seconds_<lane>"
	// (queue_wait_seconds_fast, queue_wait_seconds_heavy): how long an
	// admitted job waited before it started — for a fast-lane job, which
	// runs on its request's goroutine, only the hand-off inside submit.
	// The admission contract the soak suite enforces is phrased over
	// these — fast-lane p99 must stay below heavy-pool p50.
	MetricQueueWait = "queue_wait_seconds"
	// MetricExploredNodes is the per-request search-effort histogram
	// (log-bucketed node counts): the cost distribution of an NP-hard
	// workload is the heavy tail this service is provisioned around, and
	// a mean hides exactly what matters about it.
	MetricExploredNodes = "explored_nodes"
	// MetricJobsThrottled counts submissions refused with 429 because the
	// accept queue was full (load shedding by refusal; Retry-After rides
	// on the response).
	MetricJobsThrottled = "jobs_throttled"
	// MetricJobsShed counts anytime requests whose deadline the server
	// clamped to the shed timeout under queue pressure (load shedding by
	// degradation: they answer 200 with a partial result and a resumable
	// checkpoint instead of queueing toward their full deadline).
	MetricJobsShed = "jobs_shed"
	// MetricJobsFastLane counts fast-lane jobs: planner-decided matrix
	// queries, run on their request's goroutine instead of the pool.
	MetricJobsFastLane = "jobs_fast_lane"
	// MetricShedMode gauges whether the server is currently degrading
	// anytime requests (1 when the heavy queue is at or past the shed
	// depth, else 0). Sampled at each admission decision.
	MetricShedMode = "shed_mode"
	// MetricJournalReplayRecords counts journal records replayed at boot
	// (cumulative; one boot per process, so in practice the last boot's
	// replay size).
	MetricJournalReplayRecords = "journal_replay_records"
	// MetricJournalCorruptFrames counts corrupt journal frames detected at
	// boot: torn or bit-flipped WAL frames plus intact frames whose JSON
	// payload would not parse. Nonzero after an unclean crash is normal
	// (the torn tail); growth across boots is not.
	MetricJournalCorruptFrames = "journal_corrupt_frames"
	// MetricJournalRecords counts lifecycle records appended to the
	// write-ahead journal since boot.
	MetricJournalRecords = "journal_records_total"
	// MetricJournalSegments gauges the journal's live segment file count.
	MetricJournalSegments = "journal_segments"
	// MetricJobsRecovered counts async jobs re-enqueued from the journal
	// at boot (jobs that were accepted but not terminal when the previous
	// process died).
	MetricJobsRecovered = "jobs_recovered"
	// MetricJobsDrainCheckpointed counts anytime jobs whose drain-clipped
	// partial result was checkpointed for resumption on the next boot.
	MetricJobsDrainCheckpointed = "jobs_drain_checkpointed"
	// MetricStoreRehydrated counts result-cache entries restored from the
	// blob store at boot.
	MetricStoreRehydrated = "store_rehydrated"
)

// Log-bucketed histogram bounds. Queue waits and handler latencies span
// microseconds (cache hits, fast lane) to minutes (saturated heavy pool),
// and explored-node counts span 1 to 10^9 — both are power-law-ish, so
// geometric buckets hold relative error constant across the range where
// linear buckets would waste every low bucket.
var (
	// queueWaitBounds covers 10µs .. ~167s in ×4 steps.
	queueWaitBounds = LogBuckets(10e-6, 4, 13)
	// nodeBounds covers 1 .. ~2.6e8 explored nodes in ×8 steps.
	nodeBounds = LogBuckets(1, 8, 10)
)

// LogBuckets returns n geometric histogram upper bounds starting at start
// and multiplying by factor: {start, start·factor, ...}. start must be
// positive and factor > 1.
func LogBuckets(start, factor float64, n int) []float64 {
	bounds := make([]float64, n)
	v := start
	for i := range bounds {
		bounds[i] = v
		v *= factor
	}
	return bounds
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed upper-bound buckets
// (cumulative, Prometheus-style) plus a sum and count.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; implicit +Inf last
	counts []int64   // len(bounds)+1
	sum    float64
	count  int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// HistogramSnapshot is the JSON form of a histogram at one instant.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
	// Buckets maps "le_<bound>" (upper bound, "le_inf" for the overflow
	// bucket) to the number of observations at or below that bound.
	Buckets map[string]int64 `json:"buckets"`
	// Bounds are the ascending finite upper bounds, and Cumulative the
	// matching cumulative counts plus one final entry for the overflow
	// (+Inf) bucket — the same data as Buckets in an order-preserving
	// shape quantile estimation can consume.
	Bounds     []float64 `json:"bounds"`
	Cumulative []int64   `json:"cumulative"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count:      h.count,
		Sum:        h.sum,
		Buckets:    make(map[string]int64, len(h.counts)),
		Bounds:     append([]float64(nil), h.bounds...),
		Cumulative: make([]int64, len(h.counts)),
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		s.Buckets[fmt.Sprintf("le_%g", b)] = cum
		s.Cumulative[i] = cum
	}
	cum += h.counts[len(h.bounds)]
	s.Buckets["le_inf"] = cum
	s.Cumulative[len(h.bounds)] = cum
	return s
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the snapshot's
// buckets by linear interpolation inside the bucket the rank lands in.
// Observations in the overflow bucket are attributed its lower bound, so
// high quantiles are underestimated once the tail escapes the finite
// bounds — size the bounds so they don't. Returns 0 on an empty
// histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	prevCum := int64(0)
	lower := 0.0
	for i, b := range s.Bounds {
		cum := s.Cumulative[i]
		if float64(cum) >= rank {
			inBucket := cum - prevCum
			if inBucket == 0 {
				return b
			}
			frac := (rank - float64(prevCum)) / float64(inBucket)
			return lower + frac*(b-lower)
		}
		prevCum = cum
		lower = b
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Registry is an in-process metrics registry: named counters, gauges, and
// histograms, snapshotted as JSON by the /metrics endpoint. All methods
// are safe for concurrent use; metrics are created on first touch.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it at zero if absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero if absent.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds if absent (bounds are ignored on later calls).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]int64, len(bounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures every metric as a JSON-marshalable value, in the
// expvar spirit: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
type Snapshot struct {
	// Counters holds each counter's current value by name.
	Counters map[string]int64 `json:"counters"`
	// Gauges holds each gauge's current value by name.
	Gauges map[string]int64 `json:"gauges"`
	// Histograms holds each histogram's bucket/sum/count state by name.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot returns a point-in-time copy of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// MarshalJSON renders the live registry state (so a Registry can be
// exposed directly as an expvar-style endpoint).
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}
