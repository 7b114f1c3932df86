// Package eventorder is a library for computing event orderings of
// shared-memory parallel program executions, reproducing Netzer & Miller,
// "On the Complexity of Event Ordering for Shared-Memory Parallel Program
// Executions" (ICPP 1990 / UW-Madison TR 908).
//
// Given an observed execution P = ⟨E, T, D⟩ of a program using fork/join
// and either counting semaphores or Post/Wait/Clear event-style
// synchronization, the library decides the paper's six ordering relations
// over the set of feasible re-executions of P (Table 1):
//
//	MHB / CHB — must/could have happened before
//	MCW / CCW — must/could have been concurrent with
//	MOW / COW — must/could have been ordered with
//
// The decision procedures are exact and therefore exponential in the worst
// case; the paper proves the must-have relations co-NP-hard and the
// could-have relations NP-hard (Theorems 1–4), and this library ships those
// reductions as executable program generators together with a CDCL SAT
// solver that verifies the equivalences empirically. Polynomial baselines
// from the related work — Emrath–Ghosh–Padua task graphs, the Helmbold–
// McDowell–Wang safe-ordering phases, and vector clocks — are included for
// comparison, plus an exact-vs-approximate data-race detector.
//
// Quickstart:
//
//	prog, _ := eventorder.ParseProgram(`
//	    sem s = 0
//	    proc p1 { a: skip  V(s) }
//	    proc p2 { P(s)  b: skip }
//	`)
//	res, _ := eventorder.RunProgram(prog, 1)
//	an, _ := eventorder.Analyze(res.X, eventorder.Options{})
//	ok, _ := an.MHB(res.X.MustEventByLabel("a").ID, res.X.MustEventByLabel("b").ID)
//	// ok == true: a must have happened before b in every feasible execution.
//
// The subsystem packages under internal/ hold the implementations; this
// package re-exports the surface a downstream user needs.
package eventorder

import (
	"context"
	"math/rand"

	"eventorder/internal/core"
	"eventorder/internal/hmw"
	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
	"eventorder/internal/plan"
	"eventorder/internal/race"
	"eventorder/internal/reduction"
	"eventorder/internal/sat"
	"eventorder/internal/taskgraph"
	"eventorder/internal/vclock"
)

// Core model types.
type (
	// Execution is an observed program execution ⟨E, T, D⟩.
	Execution = model.Execution
	// EventID identifies an event of an execution.
	EventID = model.EventID
	// OpID identifies an atomic operation.
	OpID = model.OpID
	// Relation is a binary relation over an execution's events.
	Relation = model.Relation
	// Builder constructs executions programmatically.
	Builder = model.Builder
	// SemKind distinguishes counting from binary semaphores.
	SemKind = model.SemKind
)

// Semaphore kinds.
const (
	SemCounting = model.SemCounting
	SemBinary   = model.SemBinary
)

// NewBuilder returns an execution builder.
func NewBuilder() *Builder { return model.NewBuilder() }

// Analysis types.
type (
	// Analyzer decides the six ordering relations for one execution.
	Analyzer = core.Analyzer
	// Options configures analysis (data-dependence handling, node budget).
	Options = core.Options
	// RelKind names one of the six relations.
	RelKind = core.RelKind
)

// The six ordering relations of the paper's Table 1.
const (
	MHB = core.RelMHB
	CHB = core.RelCHB
	MCW = core.RelMCW
	CCW = core.RelCCW
	MOW = core.RelMOW
	COW = core.RelCOW
)

// ErrBudget is returned when a query exceeds the configured node budget.
var ErrBudget = core.ErrBudget

// Witness types: a demonstrating interleaving for a relation verdict (see
// Analyzer.WitnessSchedule).
type (
	// Witness carries the verdict and, when one exists, the schedule.
	Witness = core.Witness
	// WitnessStep is one action of a witness schedule, including event
	// begin/end boundaries that make overlap visible.
	WitnessStep = core.WitnessStep
)

// Witness step kinds.
const (
	StepBegin = core.StepBegin
	StepOp    = core.StepOp
	StepEnd   = core.StepEnd
)

// FormatWitnessSteps renders a witness schedule with event boundaries.
func FormatWitnessSteps(x *Execution, steps []WitnessStep) []string {
	return core.FormatSteps(x, steps)
}

// Analyze prepares an execution for relation queries.
func Analyze(x *Execution, opts Options) (*Analyzer, error) { return core.New(x, opts) }

// Batch analysis types. AnalyzeMatrix is the primary entry point for
// whole-matrix questions; these are the knobs and results it shares with
// Analyzer.Matrix.
type (
	// MatrixOpts configures AnalyzeMatrix / Analyzer.Matrix, which answers
	// every pair from one exploration of the feasibility space on the
	// calling goroutine: Budget bounds the total number of distinct states
	// expanded, Tiers caps the polynomial planning cascade, and Resume
	// continues an interrupted analysis from a Checkpoint. Workers is
	// deprecated and ignored.
	MatrixOpts = core.MatrixOpts
	// MatrixLimits bounds what MatrixOpts.Normalize lets through.
	MatrixLimits = core.MatrixLimits
	// MatrixResult is a complete or partial batch analysis outcome with
	// three-valued per-pair verdicts.
	MatrixResult = core.MatrixResult
	// Checkpoint resumes an interrupted analysis via MatrixOpts.Resume.
	Checkpoint = core.Checkpoint
	// Verdict is the three-valued answer type: true, false, or unknown.
	Verdict = core.Verdict
)

// Verdict values.
const (
	VerdictUnknown = core.VerdictUnknown
	VerdictFalse   = core.VerdictFalse
	VerdictTrue    = core.VerdictTrue
)

// AnalyzeMatrix computes relation matrices for kinds (nil = all six) over
// one shared exploration of the feasibility space, bracketed by the
// polynomial planning cascade (opts.Tiers). It is an anytime analysis:
// when ctx is canceled, its deadline passes, or opts.Budget runs out
// mid-exploration, it returns a partial MatrixResult whose decided
// verdicts are sound and whose Checkpoint resumes the work via
// opts.Resume. Interrupted-then-resumed analyses are bit-identical to
// one-shot runs.
func AnalyzeMatrix(ctx context.Context, x *Execution, kinds []RelKind, copts Options, opts MatrixOpts) (*MatrixResult, error) {
	res, err := plan.Analyze(ctx, x, kinds, copts, opts)
	if err != nil {
		return nil, err
	}
	return res.Matrix, nil
}

// Schedule finds and installs an observed order for an execution built
// without one (search-based; completes even executions on which naive
// schedulers deadlock, and fails only if no interleaving can complete).
func Schedule(x *Execution, opts Options) error { return core.Schedule(x, opts) }

// Language and interpretation.
type (
	// Program is a parsed mini-language program.
	Program = lang.Program
	// RunResult is a completed interpretation.
	RunResult = interp.Result
)

// ParseProgram parses the mini-language (fork/join, P/V, post/wait/clear,
// shared-variable assignments and conditionals).
func ParseProgram(src string) (*Program, error) { return lang.Parse(src) }

// ExploreResult summarizes a program's reachable behavior across all
// schedules (terminal valuations, deadlock states, branch coverage).
type ExploreResult = interp.ExploreResult

// ExploreProgram model-checks the program over every schedule, bounded by
// maxStates distinct states (0 = a large default).
func ExploreProgram(p *Program, maxStates int) (*ExploreResult, error) {
	return interp.Explore(p, interp.ExploreOptions{MaxStates: maxStates})
}

// FormatProgram renders a program back to source text.
func FormatProgram(p *Program) string { return lang.Format(p) }

// RunProgram executes a program under a seeded random scheduler, retrying
// alternate schedules if the first deadlocks, and records the observed
// execution.
func RunProgram(p *Program, seed int64) (*RunResult, error) {
	return interp.RunAvoidingDeadlock(p, 64, seed)
}

// RunProgramGranular executes a program scheduling at shared-access
// granularity: the reads and write of one assignment can interleave with
// other processes, so the observed execution may contain genuinely
// overlapping computation events (and even cross dependences that force
// concurrency — the model's must-have-concurrent cases).
func RunProgramGranular(p *Program, seed int64) (*RunResult, error) {
	return interp.Run(p, interp.Options{Sched: interp.NewRandom(seed), OpGranular: true})
}

// Race detection.
type (
	// RaceReport compares exact and approximate race detectors.
	RaceReport = race.Report
	// RacePair is one candidate or confirmed race.
	RacePair = race.Pair
)

// DetectRaces runs the exact (CCW-based), vector-clock, and program-order
// race detectors over an execution.
func DetectRaces(x *Execution, opts Options) (*RaceReport, error) {
	return race.Detect(x, opts)
}

// Baselines.
type (
	// TaskGraph is an Emrath–Ghosh–Padua task graph.
	TaskGraph = taskgraph.Graph
	// HMWResult carries the Helmbold–McDowell–Wang phase relations.
	HMWResult = hmw.Result
	// VCResult carries vector clocks and their happened-before relation.
	VCResult = vclock.Result
)

// BuildTaskGraph constructs the EGP task graph of an event-style execution.
func BuildTaskGraph(x *Execution) (*TaskGraph, error) { return taskgraph.Build(x) }

// AnalyzeHMW runs the three HMW phases on a semaphore execution.
func AnalyzeHMW(x *Execution) (*HMWResult, error) { return hmw.Analyze(x) }

// VectorClocks computes the observed-pairing happened-before relation.
func VectorClocks(x *Execution) (*VCResult, error) { return vclock.Compute(x) }

// Hardness reductions.
type (
	// Formula is a CNF formula in DIMACS conventions.
	Formula = sat.Formula
	// ReductionInstance is a generated Theorem 1–4 instance.
	ReductionInstance = reduction.Instance
	// ReductionStyle selects semaphores or event-style synchronization.
	ReductionStyle = reduction.Style
)

// Reduction styles.
const (
	StyleSemaphore = reduction.StyleSemaphore
	StyleEvent     = reduction.StyleEvent
)

// NewFormula returns an empty CNF formula over n variables.
func NewFormula(n int) *Formula { return sat.NewFormula(n) }

// SolveSAT decides a formula with the built-in CDCL solver; the returned
// model (when satisfiable) is indexed by variable.
func SolveSAT(f *Formula) (satisfiable bool, witness []bool) {
	r := sat.Solve(f)
	return r.SAT, r.Model
}

// Random3CNF returns a uniform random 3CNF formula.
func Random3CNF(rng *rand.Rand, n, m int) *Formula { return sat.Random3CNF(rng, n, m) }

// Reduce builds the paper's reduction instance for a formula: an execution
// with events a and b such that a MHB b ⇔ the formula is unsatisfiable and
// b CHB a ⇔ it is satisfiable.
func Reduce(f *Formula, style ReductionStyle, opts Options) (*ReductionInstance, error) {
	return reduction.Build(f, style, opts)
}
