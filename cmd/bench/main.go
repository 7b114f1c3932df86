// Command bench measures the batch matrix engine (Analyzer.Matrix) on each
// workload's full CCW matrix and writes the report as JSON
// (BENCH_matrix.json at the repo root is the committed artifact).
//
// Usage:
//
//	go run ./cmd/bench [-o BENCH_matrix.json] [-reps 3]
//	                   [-baseline old.json] [-procs N]
//	                   [-assert-symm-ge 1.0]
//	                   [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	go run ./cmd/bench -soak [-soak-duration 30s] [-soak-o BENCH_soak.json]
//	go run ./cmd/bench -durability [-durability-jobs 200]
//	                   [-durability-o BENCH_durability.json]
//
// -soak switches to the service soak: the soak/fault-injection harness
// (internal/service.RunSoak) drives an undersized server once, and the
// report carries per-lane queue-wait and end-to-end latency quantiles plus
// the shed rate (the EXPERIMENTS E19 numbers). Any load-shedding contract
// violation fails the run.
//
// -durability switches to the durability comparison: async accept latency
// (time to a 202, which with a state directory includes the fsynced
// write-ahead "accepted" record) with the journal on versus off, plus a
// crash-restart soak whose final-boot recovery wall time and
// verified-results count quantify what crash safety costs and buys (the
// EXPERIMENTS E20 numbers).
//
// Median-of-reps matrix wall-clock is reported, each timing column with
// its interquartile spread over the reps beside it (the _iqr columns;
// sub-0.1 ms rows move by tens of percent between runs), plus node
// throughput (states/second through the batch engine), explored node and
// edge counts, the symmetry reduction's on/off state comparison
// (process-symmetry orbit collapsing shrinks the state count itself,
// reported as symm_state_reduction), and heap allocations per expanded
// state. -procs
// pins GOMAXPROCS for the whole run; the report records the effective
// value, NumCPU, and whether GOMAXPROCS exceeds NumCPU (oversubscribed),
// so committed artifacts are honest about the hardware they measured. -assert-symm-ge fails the run
// if any case's symm_state_reduction falls below the given bound — a CI
// hook keeping the collapse from silently regressing. -baseline points at
// a previous report (same schema); its per-case matrix timings and
// node/edge counts are embedded alongside the fresh ones as before/after
// columns with the resulting throughput gain. -cpuprofile and -memprofile
// write pprof profiles of the run for flame-graph work.
//
// Each case also carries tiered-planner bracket columns: the fraction of
// ordered pairs each polynomial tier (static / observed / dag) decided
// for the benched relation, the residue the exact engine had to settle,
// and planner-on vs planner-off matrix wall-clock. -testdata points at a
// directory of .evo programs to bench alongside the generated workloads
// (each is executed once and its trace analyzed; "" skips them).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"eventorder/internal/core"
	"eventorder/internal/gen"
	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
	"eventorder/internal/plan"
)

type benchCase struct {
	name string
	x    *model.Execution
}

type caseResult struct {
	Name   string `json:"name"`
	Procs  int    `json:"procs"`
	Events int    `json:"events"`
	Pairs  int    `json:"ordered_pairs"`

	// MatrixMS is the median Analyzer.Matrix wall-clock. Every timing
	// column has an _iqr companion: the distance between the first and
	// third quartiles of its reps, so a reader can tell whether two rows'
	// medians differ by more than their spread.
	MatrixMS    float64 `json:"matrix_ms"`
	MatrixMSIQR float64 `json:"matrix_ms_iqr"`
	// MatrixNodes is the distinct states the batch engine expanded.
	MatrixNodes int64 `json:"matrix_nodes"`
	// MatrixEdges is the successor transitions of the states the batch
	// engine expanded.
	MatrixEdges int64 `json:"explored_edges"`
	// MatrixNodesNoSymm is MatrixNodes with process-symmetry orbit
	// collapsing disabled — the full state count the orbit-canonical
	// representatives stand for — and MatrixNoSymmMS the corresponding
	// wall-clock; SymmStateReduction is their ratio (off/on), exactly 1
	// when the trace has no provable process symmetry.
	MatrixNodesNoSymm  int64   `json:"matrix_nodes_nosymm,omitempty"`
	MatrixNoSymmMS     float64 `json:"matrix_nosymm_ms,omitempty"`
	MatrixNoSymmMSIQR  float64 `json:"matrix_nosymm_ms_iqr,omitempty"`
	SymmStateReduction float64 `json:"symm_state_reduction,omitempty"`
	// MatrixNodesPerSec is batch node throughput (MatrixNodes over matrix
	// wall-clock) — the honest cross-version comparison axis, since the
	// exploration visits the same states either way.
	MatrixNodesPerSec float64 `json:"matrix_nodes_per_sec"`
	// MatrixAllocsPerNode is heap allocations per expanded state during a
	// Matrix run (measured with runtime.MemStats around a dedicated run,
	// not the timed reps).
	MatrixAllocsPerNode float64 `json:"matrix_allocs_per_node"`

	// Planner bracket columns. PlanTierFrac is the fraction of ordered
	// pairs each polynomial tier decided for the benched relation (keys
	// "static", "observed", "dag"); PlanPolyFrac is their sum and
	// PlanResiduePairs the pairs only the exact engine could settle.
	// PlanOnMS / PlanOffMS are matrix wall-clock with the cascade enabled
	// and disabled (the verdicts are identical — the
	// planner is a work-avoidance bracket, not an approximation).
	PlanTierFrac     map[string]float64 `json:"plan_tier_frac"`
	PlanPolyFrac     float64            `json:"plan_poly_frac"`
	PlanResiduePairs int                `json:"plan_residue_pairs"`
	PlanOnMS         float64            `json:"plan_on_ms"`
	PlanOnMSIQR      float64            `json:"plan_on_ms_iqr"`
	PlanOffMS        float64            `json:"plan_off_ms"`
	PlanOffMSIQR     float64            `json:"plan_off_ms_iqr"`

	// Anytime columns: the fraction of ordered pairs whose CCW verdict is
	// already decided when the analysis is stopped at 1/4 and 1/2 of the
	// full run's state budget (MatrixNodes), through the default planned
	// path — the value curve of the partial-result API.
	// The floor of the curve is the planner's polynomial fraction: those
	// pairs are decided before the exponential engine expands anything.
	AnytimeQuarterFrac float64 `json:"anytime_decided_frac_quarter"`
	AnytimeHalfFrac    float64 `json:"anytime_decided_frac_half"`

	// Baseline columns, present only when -baseline was given and had this
	// case: the old matrix wall-clock, node/edge counts, and node
	// throughput, and the new-over-old throughput ratio.
	BaselineMatrixMS    float64 `json:"baseline_matrix_ms,omitempty"`
	BaselineNodes       int64   `json:"baseline_nodes,omitempty"`
	BaselineEdges       int64   `json:"baseline_edges,omitempty"`
	BaselineNodesPerSec float64 `json:"baseline_nodes_per_sec,omitempty"`
	ThroughputGain      float64 `json:"throughput_gain_vs_baseline,omitempty"`
}

type report struct {
	Kind       string `json:"kind"`
	Reps       int    `json:"reps"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	// Oversubscribed flags a GOMAXPROCS above NumCPU: the timings then
	// include oversubscription.
	Oversubscribed bool         `json:"oversubscribed"`
	Baseline       string       `json:"baseline,omitempty"`
	Cases          []caseResult `json:"cases"`
}

func main() {
	out := flag.String("o", "BENCH_matrix.json", "output path")
	reps := flag.Int("reps", 3, "repetitions per measurement (median reported)")
	baselinePath := flag.String("baseline", "", "previous report to embed as before/after columns")
	procs := flag.Int("procs", 0, "pin GOMAXPROCS for the whole run (0 = keep the runtime default; the report records the effective value)")
	assertSymmGE := flag.Float64("assert-symm-ge", 0, "exit nonzero if any case's symm_state_reduction falls below this bound (0 = no assertion)")
	testdata := flag.String("testdata", "testdata", "directory of .evo programs to bench as additional workloads (\"\" = generated cases only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	soak := flag.Bool("soak", false, "run the service soak instead of the matrix bench")
	soakDuration := flag.Duration("soak-duration", 30*time.Second, "soak traffic duration")
	soakOut := flag.String("soak-o", "BENCH_soak.json", "soak report output path")
	durability := flag.Bool("durability", false, "run the durability comparison (journal on vs off accept latency + crash-soak recovery) instead of the matrix bench")
	durabilityJobs := flag.Int("durability-jobs", 200, "async submissions per accept-latency side")
	durabilityOut := flag.String("durability-o", "BENCH_durability.json", "durability comparison output path")
	flag.Parse()

	if *soak {
		if err := runSoakBench(*testdata, *soakDuration, *soakOut); err != nil {
			fmt.Fprintf(os.Stderr, "bench -soak: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *durability {
		if err := runDurabilityBench(*testdata, *durabilityJobs, *durabilityOut); err != nil {
			fmt.Fprintf(os.Stderr, "bench -durability: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	cases, err := workloads(*testdata)
	if err != nil {
		fatal(err)
	}
	var baseline *report
	if *baselinePath != "" {
		baseline, err = loadBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	rep := report{
		Kind:       core.RelCCW.String(),
		Reps:       *reps,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Baseline:   *baselinePath,
	}
	rep.Oversubscribed = rep.GoMaxProcs > rep.NumCPU
	for _, c := range cases {
		fmt.Fprintf(os.Stderr, "== %s (%d procs, %d events)\n", c.name, len(c.x.Procs), len(c.x.Events))
		res, err := runCase(c, *reps, baseline)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", c.name, err))
		}
		rep.Cases = append(rep.Cases, res)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	if *assertSymmGE > 0 {
		failed := false
		for _, cr := range rep.Cases {
			if cr.SymmStateReduction != 0 && cr.SymmStateReduction < *assertSymmGE {
				fmt.Fprintf(os.Stderr, "bench: %s: symm_state_reduction %.2f below required %.2f\n",
					cr.Name, cr.SymmStateReduction, *assertSymmGE)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

// loadBaseline parses a previous bench report for before/after columns.
func loadBaseline(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// workloads returns the benchmark instances. Barrier and fork/join
// instances are the interesting ones: their matrices force the engine
// through large state spaces. The mutex and pipeline instances show the
// other regime: nearly (mutex) or fully (pipeline) serialized spaces.
// When testdataDir is non-empty, every .evo program there is executed once
// (deadlock-avoiding, seed 1) and benched as "testdata/<name>" — these are
// the workloads the planner bracket columns are judged on.
func workloads(testdataDir string) ([]benchCase, error) {
	var cases []benchCase
	add := func(name string, x *model.Execution, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		cases = append(cases, benchCase{name: name, x: x})
		return nil
	}
	x, err := gen.Mutex(4, 3)
	if err := add("mutex4x3", x, err); err != nil {
		return nil, err
	}
	x, err = gen.Barrier(4)
	if err := add("barrier4", x, err); err != nil {
		return nil, err
	}
	x, err = gen.Barrier(5)
	if err := add("barrier5", x, err); err != nil {
		return nil, err
	}
	x, err = gen.Pipeline(6)
	if err := add("pipeline6", x, err); err != nil {
		return nil, err
	}
	x, err = gen.ForkJoinTree(4)
	if err := add("forkjoin4", x, err); err != nil {
		return nil, err
	}
	if testdataDir != "" {
		td, err := testdataWorkloads(testdataDir)
		if err != nil {
			return nil, err
		}
		cases = append(cases, td...)
	}
	return cases, nil
}

// testdataWorkloads executes every .evo program under dir into a trace,
// in sorted filename order for a stable report.
func testdataWorkloads(dir string) ([]benchCase, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.evo"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var cases []benchCase
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		res, err := interp.RunAvoidingDeadlock(prog, 64, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".evo")
		cases = append(cases, benchCase{name: "testdata/" + name, x: res.X})
	}
	return cases, nil
}

func runCase(c benchCase, reps int, baseline *report) (caseResult, error) {
	n := len(c.x.Events)
	res := caseResult{
		Name:   c.name,
		Procs:  len(c.x.Procs),
		Events: n,
		Pairs:  n * (n - 1),
	}
	// matrixRun times a full CCW Matrix on a fresh analyzer and returns the
	// wall-clock's median and spread with the last run's node and edge
	// counts.
	matrixRun := func(opts core.Options) (ms timing, nodes, edges int64, err error) {
		ms, err = measure(reps, func() error {
			a, err := core.New(c.x, opts)
			if err != nil {
				return err
			}
			if _, err := a.Matrix(context.Background(), []core.RelKind{core.RelCCW}, core.MatrixOpts{}); err != nil {
				return err
			}
			nodes, edges = a.Stats().Nodes, a.Stats().Edges
			return nil
		})
		return ms, nodes, edges, err
	}

	mat, nodes, edges, err := matrixRun(core.Options{})
	if err != nil {
		return res, err
	}
	res.MatrixMS, res.MatrixMSIQR, res.MatrixNodes, res.MatrixEdges = round(mat.median, 3), round(mat.iqr, 3), nodes, edges
	if mat.median > 0 {
		res.MatrixNodesPerSec = round(float64(nodes)/(mat.median/1000), 2)
	}
	fmt.Fprintf(os.Stderr, "  matrix                %10.3f ms ±%.3f (%.0f nodes/s, %d nodes, %d edges)\n",
		mat.median, mat.iqr, res.MatrixNodesPerSec, nodes, edges)

	mat, nodes, _, err = matrixRun(core.Options{DisableSymm: true})
	if err != nil {
		return res, err
	}
	res.MatrixNoSymmMS, res.MatrixNoSymmMSIQR, res.MatrixNodesNoSymm = round(mat.median, 3), round(mat.iqr, 3), nodes
	fmt.Fprintf(os.Stderr, "  matrix-nosymm         %10.3f ms ±%.3f (%d states without orbit collapse)\n", mat.median, mat.iqr, nodes)
	if res.MatrixNodes > 0 {
		res.SymmStateReduction = round(float64(res.MatrixNodesNoSymm)/float64(res.MatrixNodes), 2)
		fmt.Fprintf(os.Stderr, "  symm state reduction  %10.2fx (%d -> %d)\n",
			res.SymmStateReduction, res.MatrixNodesNoSymm, res.MatrixNodes)
	}

	if err := measurePlan(c, &res, reps); err != nil {
		return res, err
	}

	if err := measureAnytime(c, &res); err != nil {
		return res, err
	}

	allocs, err := measureMatrixAllocs(c)
	if err != nil {
		return res, err
	}
	if res.MatrixNodes > 0 {
		res.MatrixAllocsPerNode = round(allocs/float64(res.MatrixNodes), 2)
	}
	fmt.Fprintf(os.Stderr, "  allocs/node           %10.2f\n", res.MatrixAllocsPerNode)

	if baseline != nil {
		attachBaseline(&res, baseline)
	}
	return res, nil
}

// measurePlan fills the tiered-planner bracket columns: per-tier decided
// fractions from one Build, then planner-on vs planner-off matrix
// wall-clock through plan.Analyze (same engine options as the main
// matrix columns).
func measurePlan(c benchCase, res *caseResult, reps int) error {
	kinds := []core.RelKind{core.RelCCW}
	p, err := plan.Build(c.x, kinds, plan.Options{})
	if err != nil {
		return err
	}
	res.PlanTierFrac = map[string]float64{}
	for _, ts := range p.Tiers {
		res.PlanTierFrac[ts.Tier.String()] = round(p.TierFraction(ts.Tier), 4)
	}
	res.PlanPolyFrac = round(p.PolyFraction(), 4)
	res.PlanResiduePairs = p.Residue
	for _, tiers := range []int{0, -1} {
		ms, err := measure(reps, func() error {
			_, err := plan.Analyze(context.Background(), c.x, kinds, core.Options{},
				core.MatrixOpts{Tiers: tiers})
			return err
		})
		if err != nil {
			return err
		}
		if tiers < 0 {
			res.PlanOffMS, res.PlanOffMSIQR = round(ms.median, 3), round(ms.iqr, 3)
		} else {
			res.PlanOnMS, res.PlanOnMSIQR = round(ms.median, 3), round(ms.iqr, 3)
		}
	}
	fmt.Fprintf(os.Stderr, "  planner               %10.3f ms on / %.3f ms off  (%.0f%% decided polynomially: static %.0f%%, observed %.0f%%, dag %.0f%%; residue %d pairs)\n",
		res.PlanOnMS, res.PlanOffMS, res.PlanPolyFrac*100,
		res.PlanTierFrac[plan.TierStatic.String()]*100,
		res.PlanTierFrac[plan.TierObserved.String()]*100,
		res.PlanTierFrac[plan.TierDAG.String()]*100,
		res.PlanResiduePairs)
	return nil
}

// measureAnytime fills the anytime columns: the default planned analysis
// is run with a state budget of 1/4 and 1/2 of the full run's
// expanded-state count, and the partial result's decided-pair fraction is
// recorded (completed runs — possible on tiny state spaces where a
// quarter budget still finishes the search — record 1).
func measureAnytime(c benchCase, res *caseResult) error {
	run := func(budget int64) (float64, error) {
		if budget < 1 {
			budget = 1
		}
		out, err := plan.Analyze(context.Background(), c.x, []core.RelKind{core.RelCCW},
			core.Options{}, core.MatrixOpts{Budget: budget})
		if err != nil {
			return 0, err
		}
		m := out.Matrix
		total := m.TotalPairs()
		if total == 0 {
			return 1, nil
		}
		return float64(m.DecidedPairs()) / float64(total), nil
	}
	quarter, err := run(res.MatrixNodes / 4)
	if err != nil {
		return err
	}
	half, err := run(res.MatrixNodes / 2)
	if err != nil {
		return err
	}
	res.AnytimeQuarterFrac = round(quarter, 4)
	res.AnytimeHalfFrac = round(half, 4)
	fmt.Fprintf(os.Stderr, "  anytime               %10.0f%% of pairs decided at 1/4 budget, %.0f%% at 1/2\n",
		quarter*100, half*100)
	return nil
}

// measureMatrixAllocs runs one Matrix and returns the heap allocation
// count it incurred (Mallocs delta; Matrix runs on the calling goroutine,
// so the delta is attributable to the run).
func measureMatrixAllocs(c benchCase) (float64, error) {
	a, err := core.New(c.x, core.Options{})
	if err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := a.Matrix(context.Background(), []core.RelKind{core.RelCCW}, core.MatrixOpts{}); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), nil
}

// attachBaseline embeds a previous report's matrix timing for this case as
// before columns and derives the throughput gain.
func attachBaseline(res *caseResult, baseline *report) {
	for _, old := range baseline.Cases {
		if old.Name != res.Name {
			continue
		}
		res.BaselineMatrixMS = old.MatrixMS
		res.BaselineNodes = old.MatrixNodes
		res.BaselineEdges = old.MatrixEdges
		if old.MatrixMS > 0 && old.MatrixNodes > 0 {
			res.BaselineNodesPerSec = round(float64(old.MatrixNodes)/(old.MatrixMS/1000), 2)
		}
		if res.BaselineNodesPerSec > 0 {
			res.ThroughputGain = round(res.MatrixNodesPerSec/res.BaselineNodesPerSec, 2)
			fmt.Fprintf(os.Stderr, "  vs baseline           %8.2f ms -> %.2f ms  (%.2fx throughput, nodes %d -> %d, edges %d -> %d)\n",
				old.MatrixMS, res.MatrixMS, res.ThroughputGain,
				old.MatrixNodes, res.MatrixNodes, old.MatrixEdges, res.MatrixEdges)
		}
		return
	}
}

// timing is a wall-clock column in ms, timed in nanoseconds and
// unrounded: the median of the reps and the distance between their first
// and third quartiles. Callers keep three decimals (microseconds) and
// derive rates from the unrounded median.
type timing struct{ median, iqr float64 }

// measure runs fn reps times and returns its wall-clock timing.
func measure(reps int, fn func() error) (timing, error) {
	if reps < 1 {
		reps = 1
	}
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return timing{}, err
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/1e6)
	}
	sort.Float64s(samples)
	return timing{samples[reps/2], samples[3*reps/4] - samples[reps/4]}, nil
}

// round rounds v to the given number of decimals.
func round(v float64, decimals int) float64 {
	s, err := strconv.ParseFloat(strconv.FormatFloat(v, 'f', decimals, 64), 64)
	if err != nil {
		return v
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
