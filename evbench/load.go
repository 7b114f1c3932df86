package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eventorder/internal/service"
)

// measuredProcs is the GOMAXPROCS of every phase the benchmark measures,
// and the closed loop is one connection: eventorderd's callers wait for
// each verdict before sending the next request. On the 2-vCPU VM the
// benchmark was tuned on, other tenants of the host change the CPU's
// speed by up to two times over seconds to minutes, and anything else
// running on the VM takes a CPU. With two connections at GOMAXPROCS 2,
// one CPU-bound process beside the benchmark cut corpus-fresh throughput
// by 35%, against 6% at one connection and GOMAXPROCS 1. One connection
// at GOMAXPROCS 2 pays a cross-CPU wake-up per request: its run-to-run
// spreads on corpus-fresh and pair-interactive were three to eight times
// those at GOMAXPROCS 1. At GOMAXPROCS 1 the server defaults to one
// analysis worker and one-worker matrices, as eventorderd does on one CPU.
const measuredProcs = 1

// loadStats is what a closed-loop phase observed.
type loadStats struct {
	attempted, failed int
	firstErr          error
	latencies         []float64 // ms, verified responses only
	lanes             map[string]int
	queueWaits        []float64 // ms, from each non-cached envelope
}

// closedLoop sends the stream's requests one after another over client,
// each as soon as the previous one is answered, until stop, and adds what
// it observed to st. *next is the first stream index and is advanced past
// every request sent. A request in flight at stop finishes and counts.
func closedLoop(ctx context.Context, client *http.Client, s *server, w *workload, next *int, stop time.Time, st *loadStats) {
	for ctx.Err() == nil && time.Now().Before(stop) {
		sendOne(ctx, client, s.url, w, *next, st)
		*next++
	}
}

// sendOne sends request i, times it from send to the response's last
// byte, and checks its verdicts.
func sendOne(ctx context.Context, client *http.Client, url string, w *workload, i int, st *loadStats) {
	st.attempted++
	fail := func(err error) {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
	}
	r, err := w.request(i)
	if err != nil {
		fail(err)
		return
	}
	start := time.Now()
	status, body, err := post(ctx, client, url+r.path, r.body)
	lat := time.Since(start)
	if err != nil {
		fail(fmt.Errorf("request %d: %w", i, err))
		return
	}
	if status != http.StatusOK {
		fail(fmt.Errorf("request %d: status %d: %s", i, status, body))
		return
	}
	env, err := check(&r, body)
	if err != nil {
		fail(err)
		return
	}
	st.latencies = append(st.latencies, float64(lat)/1e6)
	if env.Trace != nil {
		st.lanes[env.Trace.Lane]++
		if !env.Cached {
			st.queueWaits = append(st.queueWaits, env.Trace.QueueWaitMs)
		}
	}
}

// windowSlices is how many equal slices a timed window is cut into.
// Throughput, CPU per request and the latency percentiles are the medians
// of the slices' values, so a disturbance from another tenant of the VM
// that covers less than half of the window moves none of them.
const windowSlices = 10

// timedResult is one timed window's measurements.
type timedResult struct {
	*loadStats
	window    time.Duration // the slices' total length
	slices    []slice
	boots     []float64 // set-up boot times in nanoseconds
	peakRSSMB float64
	delta     map[string]float64 // /metrics counter deltas over the window
	warmup    *loadStats
}

// slice is one slice of a timed window: its length, the process CPU time
// spent in it, and the range of loadStats.latencies it completed.
type slice struct {
	dur, cpu time.Duration
	from, to int
}

// timedRun warms the server up on the start of the stream, then measures
// a closed-loop window of the given length as windowSlices back-to-back
// slices. Before each slice it boots and closes setupBoots/windowSlices
// other servers for setup_s: the machine's speed changes in spells of
// seconds, so boots spread over the window sample it as the window does,
// and no slice's time or CPU includes them.
func timedRun(ctx context.Context, s *server, w *workload, warmup, window time.Duration) (*timedResult, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var next int
	warm := &loadStats{lanes: map[string]int{}}
	closedLoop(ctx, client, s, w, &next, time.Now().Add(warmup), warm)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Return what the verdict gate and the cache fill left behind, so the
	// window's peak RSS is this workload's own.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	before, err := s.metrics(ctx)
	if err != nil {
		return nil, err
	}
	t := &timedResult{loadStats: &loadStats{lanes: map[string]int{}}, warmup: warm}
	for range windowSlices {
		boots, err := bootTimes(ctx, setupBoots/windowSlices)
		t.boots = append(t.boots, boots...)
		if err != nil {
			return nil, err
		}
		cpu0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		start, from := time.Now(), len(t.latencies)
		closedLoop(ctx, client, s, w, &next, start.Add(window/windowSlices), t.loadStats)
		dur := time.Since(start)
		cpu1, err := cpuTime()
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t.slices = append(t.slices, slice{dur: dur, cpu: cpu1 - cpu0, from: from, to: len(t.latencies)})
		t.window += dur
	}
	if t.peakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	after, err := s.metrics(ctx)
	if err != nil {
		return nil, err
	}
	t.delta = make(map[string]float64, len(after))
	for name, v := range after {
		t.delta[name] = v - before[name]
	}
	return t, nil
}

// sliceMetrics are the end-to-end metrics of each slice of the window.
func (t *timedResult) sliceMetrics() map[string][]float64 {
	var rps, cpu, p50, p90 []float64
	for _, sl := range t.slices {
		lat := t.latencies[sl.from:sl.to]
		done := float64(len(lat))
		rps = append(rps, done/sl.dur.Seconds())
		cpu = append(cpu, float64(sl.cpu)/1e6/max(done, 1))
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
	}
	return map[string][]float64{"throughput_rps": rps, "latency_p50_ms": p50, "latency_p90_ms": p90, "cpu_ms_per_req": cpu}
}

// endToEnd turns a timed window into the end-to-end metrics (setup_s is
// added by the caller): the medians over the window's slices.
func (t *timedResult) endToEnd() map[string]float64 {
	out := map[string]float64{"peak_rss_mb": t.peakRSSMB}
	for name, vs := range t.sliceMetrics() {
		out[name] = quantile(vs, 0.5)
	}
	return out
}

// serviceLayer derives the service.* per-layer metrics from the window.
func (t *timedResult) serviceLayer() map[string]float64 {
	hits := t.delta[service.MetricCacheHits]
	misses := t.delta[service.MetricCacheMisses]
	requests := t.delta[service.MetricRequests+"_analyze"] + t.delta[service.MetricRequests+"_witness"]
	laneTotal := 0
	for _, n := range t.lanes {
		laneTotal += n
	}
	return map[string]float64{
		"service.cache_hit_frac": ratio(hits, hits+misses),
		"service.fast_lane_frac": ratio(float64(t.lanes[service.LaneFast]), float64(laneTotal)),
		"service.queue_wait_ms":  quantile(t.queueWaits, 0.5),
		"service.rejected_frac":  ratio(t.delta[service.MetricJobsRejected], requests),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) to the current
// RSS, so the next peakRSSMB covers only what follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
