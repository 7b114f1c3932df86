package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"eventorder/internal/gen"
	"eventorder/internal/service"
	"eventorder/internal/traceio"
	"eventorder/internal/vfs"
)

// Durability comparison (-durability): what does crash safety cost at
// admission time, and what does recovery cost at boot? The async accept
// path is the one the journal sits on — a 202 is only sent after the
// "accepted" record is fsynced — so the honest overhead number is the
// accept-latency distribution with the journal on versus off, same
// workload, same server shape. The recovery side reuses the crash-restart
// soak harness: repeated power cuts under traffic, then a final boot
// whose replay/re-enqueue wall time and verified-results count are
// reported (the EXPERIMENTS E20 numbers).

// durabilitySide is one accept-latency run's distribution.
type durabilitySide struct {
	// Accepted counts 202 responses (the measured sample).
	Accepted int     `json:"accepted"`
	P50Ms    float64 `json:"accept_p50_ms"`
	P99Ms    float64 `json:"accept_p99_ms"`
	MaxMs    float64 `json:"accept_max_ms"`
	MeanMs   float64 `json:"accept_mean_ms"`
}

// durabilityCrash is the crash-soak summary embedded in the report.
type durabilityCrash struct {
	Episodes        int      `json:"episodes"`
	Accepted        int      `json:"accepted"`
	Done            int      `json:"done"`
	Verified        int      `json:"verified"`
	Recovered       int64    `json:"jobs_recovered"`
	ReplayRecords   int64    `json:"journal_replay_records"`
	CorruptFrames   int64    `json:"journal_corrupt_frames"`
	FinalRecoveryMs float64  `json:"final_recovery_ms"`
	Violations      []string `json:"violations,omitempty"`
}

// durabilityReportJSON is the written artifact (BENCH_durability.json).
type durabilityReportJSON struct {
	Jobs          int             `json:"jobs"`
	WithJournal   durabilitySide  `json:"accept_with_journal"`
	NoJournal     durabilitySide  `json:"accept_no_journal"`
	OverheadP50Ms float64         `json:"journal_overhead_p50_ms"`
	OverheadP99Ms float64         `json:"journal_overhead_p99_ms"`
	CrashSoak     durabilityCrash `json:"crash_soak"`
}

// acceptLatencies boots one server (durable or not, always on an
// in-memory filesystem so the disk model is identical and the comparison
// isolates the journal code path) and submits one async matrix request
// per trace, returning the per-202 wall-time distribution. Every trace is
// distinct, so no submission can short-circuit on the result cache — each
// 202 pays the full accept path, which with the journal on includes the
// fsynced "accepted" record.
func acceptLatencies(durable bool, traces [][]byte) (durabilitySide, error) {
	var side durabilitySide
	cfg := service.Config{Workers: 1, QueueDepth: len(traces) + 8}
	if durable {
		cfg.StateDir, cfg.StateFS = "/bench", vfs.NewMemFS()
	}
	srv, err := service.New(cfg)
	if err != nil {
		return side, err
	}
	defer func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // queued work is disposable; force-cancel the backlog
		srv.Shutdown(ctx)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	samples := make([]float64, 0, len(traces))
	for i, trace := range traces {
		body, err := json.Marshal(map[string]any{
			"execution": json.RawMessage(trace), "all": true, "async": true,
		})
		if err != nil {
			return side, err
		}
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return side, err
		}
		elapsed := float64(time.Since(start).Microseconds()) / 1000
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			// Two random traces collided on the same digest and the first
			// already finished — a cached 200 never touches the accept path,
			// so it is excluded from the sample rather than mismeasured.
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return side, fmt.Errorf("submission %d: status %d, want 202", i, resp.StatusCode)
		}
		samples = append(samples, elapsed)
	}
	if len(samples) < len(traces)/2 {
		return side, fmt.Errorf("only %d/%d submissions measured — workload not distinct enough", len(samples), len(traces))
	}
	sort.Float64s(samples)
	side.Accepted = len(samples)
	side.P50Ms = round(samples[len(samples)/2], 4)
	side.P99Ms = round(samples[len(samples)*99/100], 4)
	side.MaxMs = round(samples[len(samples)-1], 4)
	var sum float64
	for _, s := range samples {
		sum += s
	}
	side.MeanMs = round(sum/float64(len(samples)), 4)
	return side, nil
}

// heavyBarrierEvo renders an n-worker semaphore barrier whose workers
// write distinct shared variables in a ring — the asymmetry defeats orbit
// collapsing, so the matrix is genuinely exponential work (milliseconds
// to hundreds of milliseconds, versus microseconds for the symmetric
// testdata barrier).
func heavyBarrierEvo(n int) string {
	var b bytes.Buffer
	b.WriteString("sem arrive = 0\nsem release = 0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "var x%d\n", i)
	}
	b.WriteString("\nproc coordinator {\n")
	for i := 0; i < n; i++ {
		b.WriteString("    P(arrive)\n")
	}
	for i := 0; i < n; i++ {
		b.WriteString("    V(release)\n")
	}
	b.WriteString("}\n")
	for p := 0; p < n; p++ {
		fmt.Fprintf(&b, "proc p%d {\n", p)
		fmt.Fprintf(&b, "    before%d: x%d := 1\n", p, p)
		b.WriteString("    V(arrive)\n    P(release)\n")
		fmt.Fprintf(&b, "    after%d: x%d := x%d + 1\n", p, (p+1)%n, (p+1)%n)
		b.WriteString("}\n")
	}
	return b.String()
}

// runDurabilityBench runs the accept-latency comparison and the crash
// soak, and writes the combined artifact.
func runDurabilityBench(testdataDir string, jobs int, out string) error {
	// One distinct random execution per submission: distinct digests keep
	// every request off the result cache, and a shared seeded source keeps
	// the workload reproducible run to run.
	rng := rand.New(rand.NewSource(1))
	traces := make([][]byte, 0, jobs)
	for len(traces) < jobs {
		x, err := gen.Random(rng, gen.RandomOptions{Procs: 3, OpsPerProc: 4, Sems: 2, Events: 1, Vars: 1, SemInit: 1})
		if err != nil {
			return err
		}
		var trace bytes.Buffer
		if err := traceio.SaveExecution(&trace, x); err != nil {
			return err
		}
		traces = append(traces, append([]byte(nil), trace.Bytes()...))
	}

	fmt.Fprintf(os.Stderr, "durability: %d async accepts, journal ON...\n", jobs)
	withJournal, err := acceptLatencies(true, traces)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "durability: %d async accepts, journal OFF...\n", jobs)
	noJournal, err := acceptLatencies(false, traces)
	if err != nil {
		return err
	}

	// The corpus needs state-space-heavy work in the mix: while a job is
	// still in flight its result is uncached, so repeat submissions become
	// real jobs for the crashes to interrupt. testdata/barrier6.evo is too
	// symmetric — orbit collapsing settles it in under a millisecond — so
	// the heavy entry is a generated barrier whose per-worker shared-data
	// ring breaks the symmetry (the same shape as gen.Barrier).
	var programs []service.SoakProgram
	for _, name := range []string{"figure1.evo", "handshake.evo", "burst.evo"} {
		src, err := os.ReadFile(filepath.Join(testdataDir, name))
		if err != nil {
			return err
		}
		programs = append(programs, service.SoakProgram{Name: name, Source: string(src)})
	}
	programs = append(programs, service.SoakProgram{Name: "heavybarrier5", Source: heavyBarrierEvo(5)})
	fmt.Fprintf(os.Stderr, "durability: crash soak...\n")
	crash, err := service.RunCrashSoak(context.Background(), service.CrashSoakOptions{
		Episodes:       5,
		JobsPerEpisode: 8,
		// Submissions are paced across the crash window and the plug is
		// pulled at a random instant inside it, so jobs die in every
		// lifecycle phase: accepted-but-unqueued, queued, running, done.
		CrashAfter: 50 * time.Millisecond,
		Server:     service.Config{Workers: 2},
		Programs:   programs,
	})
	if err != nil {
		return err
	}

	report := durabilityReportJSON{
		Jobs:          jobs,
		WithJournal:   withJournal,
		NoJournal:     noJournal,
		OverheadP50Ms: round(withJournal.P50Ms-noJournal.P50Ms, 4),
		OverheadP99Ms: round(withJournal.P99Ms-noJournal.P99Ms, 4),
		CrashSoak: durabilityCrash{
			Episodes:        crash.Episodes,
			Accepted:        crash.Accepted,
			Done:            crash.Done,
			Verified:        crash.Verified,
			Recovered:       crash.Recovered,
			ReplayRecords:   crash.ReplayRecords,
			CorruptFrames:   crash.CorruptFrames,
			FinalRecoveryMs: crash.FinalRecoveryMs,
			Violations:      crash.Unexpected,
		},
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("%-22s %14s %14s\n", "", "journal on", "journal off")
	row := func(label string, a, b float64) {
		fmt.Printf("%-22s %14.3f %14.3f\n", label, a, b)
	}
	row("accept p50 (ms)", withJournal.P50Ms, noJournal.P50Ms)
	row("accept p99 (ms)", withJournal.P99Ms, noJournal.P99Ms)
	row("accept max (ms)", withJournal.MaxMs, noJournal.MaxMs)
	fmt.Printf("crash soak: %d episodes, %d accepted, %d done, %d verified, %d recovered, recovery %.1f ms\n",
		crash.Episodes, crash.Accepted, crash.Done, crash.Verified, crash.Recovered, crash.FinalRecoveryMs)
	for _, msg := range crash.Unexpected {
		fmt.Fprintf(os.Stderr, "durability: contract violation: %s\n", msg)
	}
	fmt.Printf("wrote %s\n", out)
	if len(crash.Unexpected) > 0 {
		return fmt.Errorf("crash soak saw durability contract violations")
	}
	return nil
}
