package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"eventorder/internal/service"
)

// Soak (-soak): instead of the matrix engine bench, run the service soak
// harness once against an undersized server and report the tail-latency
// and shed-rate numbers the EXPERIMENTS log tracks (E19). Planner-decided
// requests run on their own goroutine, so their queue wait (the fast-lane
// histogram) stays near zero however deep the queue of NP-hard work gets;
// the heavy-lane quantiles and the shed rate show that overload was real.

// soakReportJSON is the written artifact (BENCH_soak.json).
type soakReportJSON struct {
	DurationSec float64          `json:"duration_sec"`
	Programs    []string         `json:"programs"`
	Requests    int64            `json:"requests"`
	Statuses    map[int]int64    `json:"statuses"`
	Complete    int64            `json:"complete"`
	Partial     int64            `json:"partial"`
	Shed        int64            `json:"shed"`
	ShedRate    float64          `json:"shed_rate"`
	Lanes       map[string]int64 `json:"lanes"`
	Violations  []string         `json:"violations,omitempty"`

	FastQueueWaitP99Ms  float64 `json:"fast_queue_wait_p99_ms"`
	HeavyQueueWaitP50Ms float64 `json:"heavy_queue_wait_p50_ms"`
	HeavyQueueWaitP99Ms float64 `json:"heavy_queue_wait_p99_ms"`
	AnalyzeP50Ms        float64 `json:"analyze_p50_ms"`
	AnalyzeP99Ms        float64 `json:"analyze_p99_ms"`
	AnalyzeP999Ms       float64 `json:"analyze_p999_ms"`
}

// runSoakBench runs the soak and writes its report to out as JSON.
func runSoakBench(testdataDir string, dur time.Duration, out string) error {
	// The soak tests run this mix under -race, where the detector's
	// slowdown saturates a single heavy worker by itself; at native speed
	// the bench needs real exponential work in the mix (barrier6) and a
	// budget large enough that heavy queries are not cut short after a
	// few thousand nodes.
	names := []string{"handshake.evo", "burst.evo", "figure1.evo", "pipeline.evo", "barrier6.evo"}
	var programs []service.SoakProgram
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(testdataDir, name))
		if err != nil {
			return err
		}
		programs = append(programs, service.SoakProgram{Name: name, Source: string(src)})
	}

	fmt.Fprintf(os.Stderr, "soak: %s...\n", dur)
	rep, err := service.RunSoak(context.Background(), service.SoakOptions{
		Duration:      dur,
		Clients:       24,
		StormClients:  4,
		SlowClients:   2,
		RequestBudget: 4 << 20,
		Programs:      programs,
		Server: service.Config{
			// Undersized on purpose, mirroring the soak test: one worker
			// and a shallow queue so queueing and shedding engage.
			Workers:    1,
			QueueDepth: 8,
			CacheBytes: 1 << 16,
		},
	})
	if err != nil {
		return err
	}

	report := soakReportJSON{
		DurationSec:         dur.Seconds(),
		Programs:            names,
		Requests:            rep.Requests,
		Statuses:            rep.Statuses,
		Complete:            rep.Complete,
		Partial:             rep.Partial,
		Shed:                rep.Shed,
		Lanes:               rep.Lanes,
		Violations:          rep.Unexpected,
		FastQueueWaitP99Ms:  rep.FastQueueWaitP99Ms,
		HeavyQueueWaitP50Ms: rep.HeavyQueueWaitP50Ms,
		HeavyQueueWaitP99Ms: rep.HeavyQueueWaitP99Ms,
		AnalyzeP50Ms:        rep.AnalyzeP50Ms,
		AnalyzeP99Ms:        rep.AnalyzeP99Ms,
		AnalyzeP999Ms:       rep.AnalyzeP999Ms,
	}
	if rep.Requests > 0 {
		report.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	row := func(label string, v float64) { fmt.Printf("%-22s %14.3f\n", label, v) }
	row("fast p99 wait (ms)", report.FastQueueWaitP99Ms)
	row("heavy p50 wait (ms)", report.HeavyQueueWaitP50Ms)
	row("heavy p99 wait (ms)", report.HeavyQueueWaitP99Ms)
	row("analyze p50 (ms)", report.AnalyzeP50Ms)
	row("analyze p99 (ms)", report.AnalyzeP99Ms)
	row("analyze p999 (ms)", report.AnalyzeP999Ms)
	row("shed rate", report.ShedRate)
	fmt.Printf("%-22s %14d\n", "requests", report.Requests)
	for _, msg := range report.Violations {
		fmt.Fprintf(os.Stderr, "soak: contract violation: %s\n", msg)
	}
	fmt.Printf("wrote %s\n", out)
	if len(report.Violations) > 0 {
		return fmt.Errorf("soak saw load-shedding contract violations")
	}
	return nil
}
