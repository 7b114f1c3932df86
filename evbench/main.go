// Command evbench is the repository benchmark. It hosts eventorderd in its
// own process — service.New with the service.Config cmd/eventorderd builds
// from its default flags, serving Handler() on a loopback listener — and
// drives it with a seeded closed loop over one HTTP connection, with
// GOMAXPROCS 1 for everything it measures (see measuredProcs). It checks
// every verdict against an independently computed expectation, and prints
// the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced replay.
//
// Usage, from the repository root (evbench/run.sh builds and runs it):
//
//	bash evbench/run.sh --workload corpus-fresh --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it record the
// environment (seed, GOMAXPROCS, NumCPU, Go version, CPU model, kernel,
// and whether GOMAXPROCS exceeds NumCPU) and the per-workload counts.
// Artifacts go to --out: report.json for every run, and for traced runs
// the raw span file spans.jsonl and the per-layer summary summary.txt,
// which ends with a reconciliation line.
//
// # End-to-end metrics
//
// Every workload reports the same six, from one timed window with no
// tracing that follows a cache fill and a 2 s warm-up:
//
//	throughput_rps  req/s  higher  verified responses per second
//	latency_p50_ms  ms     lower   median client-observed time, send to last byte
//	latency_p90_ms  ms     lower   90th percentile of the same
//	cpu_ms_per_req  ms     lower   process user+sys CPU (getrusage) per request
//	peak_rss_mb     MiB    lower   peak RSS during the window (VmHWM, reset at its start)
//	setup_s         s      lower   server boot, service.New to the first 200
//	                               from /healthz, median of 200 boots
//
// The window is ten back-to-back slices of equal length, and throughput,
// CPU per request and both percentiles are the medians of the slices'
// values, so a disturbance over less than half of the window moves none of
// them. The set-up boots are made in groups before each slice. On the
// 2-vCPU VM the benchmark was tuned on, other tenants of the host change
// the CPU's speed by up to two times, in spells of one to tens of seconds,
// and every layer slows alike: interleaved with a cache-resident
// calibration loop, an exact matrix loop kept its per-second time ratio to
// it mostly within 5% of the median while both times varied twofold. No
// statistic within a run removes a spell that covers most of its window
// (the fastest quarter or tenth of 0.5–2 s slices spread as widely across
// runs as the medians did), so the window is long: 45 s in BENCHMARK.json.
// The tail is p90, not p99: on that VM p99 ranged 6.7–8.1 ms on small
// programs and 42–95 ms on heavy traces across identical runs, while p90
// stayed within about ±6%. A 45 s window gives each slice about 120
// exact-heavy requests, the fewest of any workload, so about 12 lie beyond
// p90. The 32 MiB result cache is filled to its budget before timing;
// small results fill it at about 1.6 MB/s, so otherwise peak RSS would
// track run length × throughput. Every request counts as attempted; a
// non-200 response or a verdict that differs from its expectation counts
// as failed, and any failure makes the command exit non-zero.
//
// # Workloads
//
// The seed is an argument; the server sees only the generated requests.
// Each fresh request renames semaphores, event variables and shared
// variables with a per-request prefix, which keeps the state space but
// gives a new digest, so the result cache cannot answer it.
//
//   - corpus-fresh: synchronous all-six-relation matrices ("all": true) of
//     distinct small programs, sent as program. Three requests in four
//     are drawn from 512 seeded 3-process random programs
//     (gen.RandomProgramSource, at most 4 statements per process, with
//     semaphores, events, shared variables and branches); one in four is
//     a renamed testdata/*.evo idiom. Fixed per-request work — parse,
//     interpret, digest, plan, Analyzer setup, encode, HTTP — is most of a
//     request of about 1.3 ms, while the exact sweeps are small.
//   - exact-heavy: synchronous all-six matrices of traces with large state
//     spaces, sent as execution. It cycles four shapes of 19–52 ms each
//     (medians in the timed window), so p50 and p90 do not fall on a gap
//     between modes: a barrier with a data ring (5 workers, no symmetry,
//     12.5k states), a fork/join tree (5 children, 22k states), a
//     symmetric barrier (6 workers with labelled computation events, orbit
//     folding) and a producer/consumer (3×3×2, partial symmetry). Requests
//     leave workers unset, as clients do, so the default fan-out runs: one
//     worker at GOMAXPROCS 1. The paper's exponential search dominates
//     here: forward and backward sweeps, statetab, symmetry, partial-order
//     reduction. BENCHMARK.json does not list it: over five seeds its
//     end-to-end metrics spread by 0.10–0.16 of their medians (first to
//     third quartile) in 45 s windows and 0.15–0.22 in 30 s windows,
//     against 0.03–0.10 for the other two workloads at 30 s, and three
//     workloads of 45 s do not fit the time all runs of the benchmark may
//     take. Run it by hand, over more seeds, to test the core.* rows of
//     the table below at full size.
//   - pair-interactive: synchronous single-pair queries over the
//     barrier-with-ring and fork/join traces at 5 workers. Two in
//     three are /v1/analyze with a uniformly chosen relation and labelled
//     event pair, one in three is /v1/witness, and one request in four
//     repeats one of the last 32 requests exactly. This is interactive
//     debugging: the per-pair engine (Decide, WitnessSchedule) runs here
//     and nowhere else, and the result cache serves reads here, while the
//     matrix workloads only write to it.
//
// # Per-layer metrics
//
// A run with --trace 1 first makes the same timed window, from which the
// service.* counts and waits come (/metrics deltas and each envelope's
// trace block), and then the traced replay: the first requests of the
// same stream, one at a time on one goroutine, through direct calls to
// each layer's public functions in the order the service makes them, with
// a span around each call; then the same body over HTTP to a fresh
// server. Times and allocations are per-request medians, the engine's
// exact counts per-request means, and the rest ratios. A layer the
// workload does not run reports 0. Which end-to-end metric each layer
// metric should move, and where:
//
//	layer metrics                                   should move                 on                        predicted flat on
//	lang.parse_ms, lang.parse_allocs,               latency_p50_ms,             corpus-fresh              not run elsewhere
//	  interp.run_ms, interp.run_allocs,             cpu_ms_per_req
//	  interp.steps
//	traceio.digest_ms, traceio.digest_allocs        latency_p50_ms              corpus-fresh,             exact-heavy
//	                                                                            pair-interactive
//	traceio.load_ms, traceio.load_allocs            latency_p50_ms              pair-interactive          exact-heavy
//	plan.build_ms, plan.build_allocs,               cpu_ms_per_req,             corpus-fresh              exact-heavy; not run on
//	  plan.static_ms, plan.observed_ms,             latency_p50_ms                                          pair-interactive
//	  plan.dag_ms (tier times are differences
//	  of Build with Tiers 1, 2 and 3)
//	plan.decided_frac, plan.observed_decided_frac,  latency_p50_ms              exact-heavy, corpus-fresh  —
//	  plan.zero_residue_frac                          (through core.states)
//	core.setup_ms, core.setup_allocs                latency_p50_ms              corpus-fresh,             exact-heavy
//	                                                                            pair-interactive
//	core.forward_ms, core.backward_ms,              throughput_rps,             exact-heavy; small        pair-interactive
//	  core.matrix_rest_ms, core.matrix_allocs,      latency_p50_ms,               on corpus-fresh
//	  core.states, core.edges,                      latency_p90_ms,
//	  core.symm_collapses                           cpu_ms_per_req
//	core.memo_bytes                                 peak_rss_mb                 exact-heavy, corpus-fresh —
//	core.decide_ms, core.witness_ms,                latency_p90_ms,             pair-interactive          not run elsewhere
//	  core.pair_states, core.pair_memo_hit_frac,    throughput_rps
//	  core.pair_allocs
//	service.encode_ms, service.rest_ms              latency_p50_ms,             corpus-fresh,             exact-heavy
//	                                                cpu_ms_per_req              pair-interactive
//	service.cache_hit_frac                          throughput_rps              pair-interactive (≈1/4)   exactly 0 on corpus-fresh
//	                                                                                                        and exact-heavy
//	service.fast_lane_frac, service.queue_wait_ms   latency_p90_ms              exact-heavy, corpus-fresh  —
//	service.rejected_frac                           share of failed requests    all (0 at one connection)  —
//
// core.matrix_rest_ms is Analyzer.Matrix's wall time minus the forward and
// backward spans MatrixOpts.OnPhase reports. It has its own row because a
// CPU profile of the fork/join-6 matrix put 71% of its samples in
// mergeCompletionMemo, outside both spans, and a symmetric 7-worker
// barrier spent 248 of 252 ms in the backward sweep and its orbit folding
// against 2.0 ms forward. service.rest_ms is the HTTP round trip minus
// the request's layer spans: decode, cache, admission and queue, result
// assembly and transport.
//
// # Verdict gate
//
// Before timing, every base input gets its expected relations from a path
// its requests do not exercise (see expect.go): brute-force enumeration
// where it fits, else the per-pair engine for small matrices; for the
// heavy shapes, whose full per-pair matrices take 12–78 s each, the batch
// engine with planner, partial-order reduction, symmetry and fan-out off,
// cross-checked by the per-pair engine on sampled pairs; and the batch
// matrix for pair and witness requests.
//
// # Out of scope
//
// The durable async path (-state-dir, journal, blob store): heavy async
// jobs on a durable server gave accept p50 of 9.1–13.5 ms and 29–46 req/s
// across four identical 15 s runs, so no such workload repeats within a
// tenth. Overload: admission control (fast lane, shedding) acts only when
// more jobs queue than there are workers, which one closed-loop
// connection never causes, so this benchmark predicts no change from it
// and records service.fast_lane_frac and service.queue_wait_ms only to
// show that (none of 300 random programs was fully decided by the
// planner; of the testdata programs only handshake is). /v1/races.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupBoots is how many boots setup_s is the median of: one boot of
// about a quarter of a millisecond scatters by tens of percent on a small
// VM. timedRun makes them in groups before each slice of the window, so
// the median spans the run's changing share of a shared machine instead
// of one instant of it; made in three groups at the window's ends, the
// median spread by 0.28–0.48 of itself across runs.
const setupBoots = 200

// runDeadline bounds a whole run, so a stuck benchmark still exits well
// within the three minutes a run may take; exitGrace is how long a
// cancelled run may take to shut down before the process exits anyway.
const (
	runDeadline = 165 * time.Second
	exitGrace   = 10 * time.Second
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 45, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = report per-layer metrics from a traced replay")
	fs.StringVar(&o.root, "root", ".", "repository root (testdata/*.evo)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "evbench"), "artifact directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "evbench: --seconds must be positive")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	// Every phase checks ctx, but a library call that does not could hold
	// a signalled run past its limit; the process exits regardless, which
	// closes its listeners and connections (it starts no child process).
	go func() {
		<-ctx.Done()
		time.Sleep(exitGrace)
		fmt.Fprintln(stderr, "evbench: stopped without finishing:", ctx.Err())
		os.Exit(1)
	}()
	o.progress = stderr
	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "evbench:", err)
		return 1
	}
	for _, line := range rep.lines() {
		fmt.Fprintln(stdout, line)
	}
	if !rep.result.Correct {
		fmt.Fprintf(stderr, "evbench: %d of %d requests failed; first: %v\n", rep.result.Failed, rep.result.Attempted, rep.firstErr)
		return 1
	}
	return 0
}

// options configures one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	out      string    // artifact directory ("" writes none)
	progress io.Writer // receives progress lines (nil discards them)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run produced.
type report struct {
	env      map[string]any
	counts   map[string]any
	result   result
	firstErr error
}

func (r *report) lines() []string {
	env, _ := json.Marshal(map[string]any{"env": r.env})          // plain values always encode
	counts, _ := json.Marshal(map[string]any{"counts": r.counts}) // likewise
	res, _ := json.Marshal(r.result)                              // likewise
	return []string{string(env), string(counts), string(res)}
}

// units of the reported metrics, by name or by suffix.
func unitOf(name string) string {
	switch name {
	case "throughput_rps":
		return "req/s"
	case "peak_rss_mb":
		return "MiB"
	case "setup_s":
		return "s"
	case "cpu_ms_per_req":
		return "ms"
	case "core.memo_bytes":
		return "bytes"
	}
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	}
	return "count"
}

// run makes one benchmark run: verdict gate, cache fill, warm-up, timed
// window with the set-up boots and, when tracing, the traced replay. Every
// server it boots is shut down before it returns, on every path.
func run(ctx context.Context, o options) (*report, error) {
	start := time.Now()
	logf := func(format string, args ...any) {
		if o.progress != nil {
			fmt.Fprintf(o.progress, "evbench %6.2fs: %s\n", time.Since(start).Seconds(), fmt.Sprintf(format, args...))
		}
	}
	w, err := newWorkload(o.workload, o.seed, o.root)
	if err != nil {
		return nil, err
	}
	gateStart := time.Now()
	if err := w.computeExpectations(ctx); err != nil {
		return nil, err
	}
	methods := map[string]int{}
	for _, b := range w.bases {
		methods[b.method]++
	}
	gate := time.Since(gateStart)
	logf("verdict gate: %d bases %v", len(w.bases), methods)

	// The verdict gate uses every CPU; what is measured runs on one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measuredProcs))
	env := environment(o.seed)

	s, _, err := bootServer(ctx)
	if err != nil {
		return nil, err
	}
	timed, fills, err := func() (*timedResult, int, error) {
		defer s.close()
		fills, err := s.fillCache(ctx)
		if err != nil {
			return nil, fills, err
		}
		logf("cache filled by %d requests", fills)
		window := time.Duration(o.seconds * float64(time.Second))
		t, err := timedRun(ctx, s, w, min(2*time.Second, window/4), window)
		return t, fills, err
	}()
	if err != nil {
		return nil, err
	}
	logf("timed window: %d requests in %v", timed.attempted, timed.window)
	setup := time.Duration(quantile(timed.boots, 0.5))
	logf("setup: median boot %v of %d", setup, len(timed.boots))

	attempted := timed.attempted + timed.warmup.attempted
	failed := timed.failed + timed.warmup.failed
	firstErr := timed.warmup.firstErr
	if firstErr == nil {
		firstErr = timed.firstErr
	}
	counts := map[string]any{
		"workload":         o.workload,
		"bases":            len(w.bases),
		"gate_methods":     methods,
		"gate_s":           gate.Seconds(),
		"cache_fill_reqs":  fills,
		"warmup_attempted": timed.warmup.attempted,
		"timed_attempted":  timed.attempted,
		"timed_failed":     timed.failed,
		"window_s":         timed.window.Seconds(),
		"lanes":            timed.lanes,
		"slices":           timed.sliceMetrics(),
	}
	metrics := map[string]metric{}
	var tr *traceRun
	if o.trace {
		if tr, err = tracedReplay(ctx, w, traceSample[o.workload]); err != nil {
			return nil, err
		}
		logf("traced replay: %d requests", len(tr.reqs))
		counts["traced_requests"] = len(tr.reqs)
		counts["traced_checks"] = tr.checked
		attempted += len(tr.reqs)
		for name, v := range tr.layerMetrics() {
			metrics[name] = metric{v, unitOf(name)}
		}
		for name, v := range timed.serviceLayer() {
			metrics[name] = metric{v, unitOf(name)}
		}
	} else {
		for name, v := range timed.endToEnd() {
			metrics[name] = metric{v, unitOf(name)}
		}
		metrics["setup_s"] = metric{setup.Seconds(), "s"}
	}
	counts["attempted"], counts["succeeded"], counts["failed"] = attempted, attempted-failed, failed

	rep := &report{
		env:      env,
		counts:   counts,
		result:   result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics},
		firstErr: firstErr,
	}
	if o.out != "" {
		if err := rep.writeArtifacts(o, tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (r *report) writeArtifacts(o options, tr *traceRun) error {
	trace := 0
	if o.trace {
		trace = 1
	}
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, trace))
	data, err := json.MarshalIndent(map[string]any{"env": r.env, "counts": r.counts, "result": r.result}, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "report.json"), data); err != nil {
		return err
	}
	if tr != nil {
		return tr.writeArtifacts(dir, o.workload, r.env)
	}
	return nil
}

// environment records where the run happened. A GOMAXPROCS above NumCPU
// is flagged: its timings include oversubscription.
func environment(seed int64) map[string]any {
	procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU()
	return map[string]any{
		"seed":           seed,
		"gomaxprocs":     procs,
		"numcpu":         cpus,
		"oversubscribed": procs > cpus,
		"go":             runtime.Version(),
		"goos":           runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":      cpuModel(),
		"kernel":         kernelRelease(),
	}
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	rel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(rel))
}
