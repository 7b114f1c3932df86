package core

import (
	"context"
	"errors"
	"math/bits"
	"time"

	"eventorder/internal/model"
	"eventorder/internal/statetab"
)

// Batch matrix engine. The per-pair decision procedures answer one
// (co-)NP-hard query each, so a full six-relation matrix over n events runs
// O(n²) independent exponential searches — and a per-pair fan-out cannot
// share completion memos across its private workers at all. This engine
// inverts the amortization: it explores the feasibility state space ONCE
// and reads every pair's verdict out of two reachability facts, because in
// any complete valid interleaving exactly one of three things happens to a
// pair (a, b):
//
//	a T b      ⇔ some moment has a ended and b not yet begun
//	b T a      ⇔ some moment has b ended and a not yet begun
//	overlap    ⇔ some moment has both begun and neither ended
//
// so with canOrder[a][b] = "some feasible complete interleaving passes
// through a state with a ended and b unbegun" and canOverlap[a][b] likewise
// for simultaneous in-progress states, Table 1 collapses to:
//
//	CHB(a,b) = canOrder[a][b]            MHB(a,b) = ¬canOrder[b][a] ∧ ¬canOverlap[a][b]
//	CCW(a,b) = canOverlap[a][b]          MOW(a,b) = ¬canOverlap[a][b]
//	COW(a,b) = canOrder in either dir    MCW(a,b) = ¬COW(a,b)
//
// (the same derivation BruteRelations applies to enumerated interleavings,
// here applied to the memoized state DAG instead of the schedule tree).
//
// One wrinkle: an atomic synchronization event occupies no state — it is
// never "in progress" at a state boundary — yet it overlaps a computation
// event whenever its action fires inside that event's interval. Those
// overlaps are facts of DAG edges, not states: when a sync action leads
// from a completable state to a completable state, its event overlaps
// every event in progress there. The backward sweep folds this edge rule
// alongside the state rules. (Two atomic events can never overlap.)
//
// The engine runs two level-synchronous sweeps over the state DAG — states
// at level L have executed exactly L actions, so levels form a topological
// order — a forward reachability pass and a backward completability pass,
// then folds facts from every reachable-and-completable state into the two
// matrices. Both sweeps run on the calling goroutine over one state table,
// which a complete run hands to the analyzer as its completion memo.

// MatrixOpts configures Analyzer.Matrix (and the planning layers built on
// it: plan.Analyze and the eventorder.AnalyzeMatrix facade).
type MatrixOpts struct {
	// Workers is ignored: Matrix runs on the calling goroutine.
	//
	// Deprecated: fan-out never paid at the trace sizes the engine accepts
	// and was removed; the field remains so existing callers compile.
	Workers int
	// Budget bounds the number of distinct states expanded by the whole
	// batch; 0 inherits Options.MaxNodes as the total-batch budget. The
	// batch expands each reachable state once, so a total budget (not a
	// per-query one) is the natural unit. When the budget runs out the
	// analysis returns a partial MatrixResult carrying a Checkpoint; a
	// resumed run charges the budget cumulatively (a budget of B names B
	// total states across all attempts, give or take the re-run of the
	// level the interrupt landed in).
	Budget int64
	// Tiers caps the polynomial planning cascade for the layers above the
	// exact engine (plan.Analyze, eventorder.AnalyzeMatrix): 0 runs every
	// tier, 1..MaxPlanTiers a prefix, negative disables planning.
	// Analyzer.Matrix itself ignores it — the plan arrives via Seed.
	Tiers int
	// DisablePOR is ignored, like Options.DisablePOR.
	//
	// Deprecated: sleep-set reduction was removed from the forward sweep;
	// the field remains so existing callers compile.
	DisablePOR bool
	// DisableSymm turns off process-symmetry orbit collapsing for this
	// batch's sweeps (it is also off whenever the analyzer's
	// Options.DisableSymm is set or no nontrivial group was detected).
	// Matrices are bit-identical either way: the sweeps intern one
	// canonical representative per orbit and fold facts for every orbit
	// member through the inverse permutations. A resumed run inherits the
	// checkpoint's setting — and refuses to resume a symmetry-reduced
	// checkpoint (whose stored keys are canonical) with symmetry disabled.
	DisableSymm bool
	// Seed carries primitive interval facts proven by a polynomial
	// pre-analysis (internal/plan builds one): a lower bound (facts proven
	// true) and an upper bound (facts proven false) on the canOrder /
	// canOverlap matrices the exploration would otherwise derive. Facts
	// the seed decides are excluded from fold work and restored from the
	// seed afterwards, and when the bracket decides every requested
	// verdict the exploration is skipped entirely. A sound seed leaves
	// every verdict bit-identical to an unseeded run; an inconsistent one
	// is rejected. Nil runs unseeded. Mutually exclusive with Resume (the
	// seed travels inside the checkpoint).
	Seed *FactSeed
	// Resume continues an interrupted analysis from the checkpoint a
	// partial MatrixResult carried. The resumed run must target the same
	// execution and IgnoreData setting (enforced by fingerprint).
	// Interrupted-then-resumed analyses produce matrices bit-identical to
	// one-shot runs.
	Resume *Checkpoint
	// OnPhase, when non-nil, observes coarse span timings as the analysis
	// runs: the batch engine reports "forward" (level-synchronous state
	// expansion) and "backward" (completability sweep and fact folding)
	// once each as the phase finishes — on an interrupted run, for the
	// partial phase that was cut short. Layers above add their own spans
	// through the same hook (plan.Analyze reports "plan"). The callback
	// runs on the calling goroutine of Matrix and must be cheap; it is an
	// observability hook and never alters verdicts.
	OnPhase func(phase string, elapsed time.Duration)
}

// MaxPlanTiers is the number of polynomial planning tiers the layers
// above the exact engine implement (internal/plan.NumPolyTiers asserts
// the two agree); Normalize clamps MatrixOpts.Tiers against it.
const MaxPlanTiers = 3

// MatrixLimits bounds what Normalize lets an opts carry — the server-side
// clamp configuration. The zero value imposes no caps.
type MatrixLimits struct {
	// MaxWorkers is ignored, like MatrixOpts.Workers.
	//
	// Deprecated: the field remains so existing callers compile.
	MaxWorkers int
	// MaxBudget, when positive, caps Budget and substitutes for an
	// unlimited (zero) request.
	MaxBudget int64
}

// Normalize applies the defaults and clamps every entry point shares, so
// the service, CLIs, and bench do not each re-validate: negative Budget
// reads as unlimited (0) then clamps to lim.MaxBudget; Tiers clamps to
// [-1, 0..MaxPlanTiers] (below -1 means "exact only", above MaxPlanTiers
// means "all tiers"). Seed, Resume and the ignored Workers pass through.
func (o MatrixOpts) Normalize(lim MatrixLimits) MatrixOpts {
	if o.Budget < 0 {
		o.Budget = 0
	}
	if lim.MaxBudget > 0 && (o.Budget == 0 || o.Budget > lim.MaxBudget) {
		o.Budget = lim.MaxBudget
	}
	if o.Tiers < 0 {
		o.Tiers = -1
	} else if o.Tiers > MaxPlanTiers {
		o.Tiers = 0
	}
	return o
}

// MatrixResult is the (possibly partial) outcome of a batch analysis.
// A complete result decides every requested verdict; a partial one —
// produced when cancellation, a deadline, or budget exhaustion struck
// mid-exploration — reports three-valued verdicts (everything decided so
// far, never contradicting the full analysis) plus a Checkpoint that a
// later call resumes via MatrixOpts.Resume.
type MatrixResult struct {
	// Complete reports whether every requested verdict is decided.
	Complete bool
	// Kinds echoes the requested relation kinds.
	Kinds []RelKind
	// Relations holds, per requested kind, the pairs proven to satisfy
	// the relation. On a complete run absence means proven-false; on a
	// partial run consult Undecided (or Verdict) to tell proven-false
	// from still-open.
	Relations map[RelKind]*model.Relation
	// Undecided holds, per requested kind, the pairs the interrupted
	// analysis left open. Nil when Complete.
	Undecided map[RelKind]*model.Relation
	// Checkpoint resumes the interrupted exploration. Nil when Complete.
	Checkpoint *Checkpoint
	// Cause records why the analysis stopped early (a context error or
	// ErrBudget). Nil when Complete.
	Cause error
	// Expanded is the cumulative number of states charged against the
	// budget, including resumed-from attempts.
	Expanded int64
}

// Verdict returns the three-valued answer for kind(a, b): VerdictTrue or
// VerdictFalse when decided, VerdictUnknown when the partial analysis
// left the pair open (or the kind was not requested).
func (m *MatrixResult) Verdict(kind RelKind, a, b model.EventID) Verdict {
	rel, ok := m.Relations[kind]
	if !ok {
		return VerdictUnknown
	}
	if rel.Has(a, b) {
		return VerdictTrue
	}
	if !m.Complete && m.Undecided[kind].Has(a, b) {
		return VerdictUnknown
	}
	return VerdictFalse
}

// TotalPairs returns the number of ordered event pairs, n·(n−1).
func (m *MatrixResult) TotalPairs() int {
	for _, rel := range m.Relations {
		n := rel.N()
		return n * (n - 1)
	}
	return 0
}

// DecidedPairs counts the ordered pairs whose every requested verdict is
// decided — the anytime progress measure (equals TotalPairs when
// Complete).
func (m *MatrixResult) DecidedPairs() int {
	if m.Complete {
		return m.TotalPairs()
	}
	var n int
	for _, rel := range m.Relations {
		n = rel.N()
		break
	}
	decided := 0
	for i := 0; i < n; i++ {
	pairs:
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			for _, kind := range m.Kinds {
				if m.Undecided[kind].Has(model.EventID(i), model.EventID(j)) {
					continue pairs
				}
			}
			decided++
		}
	}
	return decided
}

// Matrix computes relation matrices for kinds (nil or empty = all six)
// from one shared exploration of the feasibility state space. Complete
// verdicts are bit-identical to per-pair Relation calls; only the work
// differs: the exponential space is walked a constant number of times
// instead of O(n²) times. Options.DisableMemo does not change the
// exploration (it IS the memo); it only keeps the finished state table
// from becoming the analyzer's completion memo.
//
// Matrix is an anytime analysis: when cancellation, a deadline, or budget
// exhaustion strikes it returns (partial, nil) — a MatrixResult with
// Complete=false carrying every verdict decided so far (sound: a partial
// verdict never contradicts the full analysis) and a Checkpoint that
// MatrixOpts.Resume continues from. A context that is already dead on
// entry yields an empty-but-resumable partial, never an error, so a
// deadline produces the same response shape no matter when it struck. The
// error return is reserved for real failures (invalid kinds, inconsistent
// seeds, mismatched checkpoints).
//
// On a complete run the batch's state table becomes the analyzer's
// persistent completion memo, so later per-pair queries on the same
// analyzer start warm; an interrupted run leaves the memo untouched.
func (a *Analyzer) Matrix(ctx context.Context, kinds []RelKind, opts MatrixOpts) (*MatrixResult, error) {
	if len(kinds) == 0 {
		kinds = AllRelKinds
	}
	for _, k := range kinds {
		if _, _, err := relAccept(k); err != nil {
			return nil, err
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.Normalize(MatrixLimits{})
	budget := opts.Budget
	if budget == 0 {
		budget = a.opts.MaxNodes
	}

	n := len(a.x.Events)
	seed := opts.Seed
	sym := a.symm && !opts.DisableSymm
	ckpt := opts.Resume
	if ckpt != nil {
		if opts.Seed != nil {
			return nil, errors.New("core: MatrixOpts.Seed and Resume are mutually exclusive (the seed travels inside the checkpoint)")
		}
		if err := ckpt.validateFor(a); err != nil {
			return nil, err
		}
		seed = ckpt.seed()
		// The checkpoint's stored state keys are orbit-canonical when it
		// was cut from a symmetry-reduced run; resuming them without the
		// canonicalizer would treat representatives as the whole frontier,
		// so the mismatch is an error rather than a downgrade. A raw-key
		// checkpoint resumes raw on any analyzer.
		if ckpt.Symm && !sym {
			return nil, badCheckpoint("checkpoint was cut from a symmetry-reduced run; resume with Options.DisableSymm and MatrixOpts.DisableSymm unset")
		}
		sym = ckpt.Symm
	}
	if seed != nil {
		if err := seed.Validate(n); err != nil {
			return nil, err
		}
		// Fully bracketed: every requested verdict follows from the seed,
		// so the exponential exploration is unnecessary. Nothing is
		// explored or memoized on this path (Stats stay untouched). A
		// resume never lands here — a checkpoint exists only because the
		// seed did not decide everything.
		if ckpt == nil && seed.DecidesAll(kinds, n) {
			out := make(map[RelKind]*model.Relation, len(kinds))
			for _, kind := range kinds {
				r := model.NewRelation(kind.String(), n)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if i == j {
							continue
						}
						if seed.Verdict(kind, model.EventID(i), model.EventID(j)).Holds() {
							r.Set(model.EventID(i), model.EventID(j))
						}
					}
				}
				out[kind] = r
			}
			return &MatrixResult{Complete: true, Kinds: append([]RelKind(nil), kinds...), Relations: out}, nil
		}
	}

	run, err := newBatchRun(a, ctx, budget, sym, seed, ckpt)
	if err != nil {
		return nil, err
	}
	run.onPhase = opts.OnPhase
	err = run.explore()
	if err != nil {
		if !isInterrupt(err) {
			return nil, err
		}
		// Interrupted with value: fold what the sweeps proved so far (all
		// of it sound — positive facts come only from states already
		// proven reachable and completable) into a partial result, and
		// leave the analyzer's persistent memo untouched so no partial
		// verdict is ever served as complete.
		run.applySeedFacts()
		return run.partialResult(kinds, err), nil
	}
	a.stats.Nodes += run.expanded - run.baseExpanded
	a.stats.Edges += run.edges - run.baseEdges
	run.handOverMemo()
	run.applySeedFacts()
	return run.completeResult(kinds), nil
}

// isInterrupt reports whether err is an interruption that yields a
// partial result (cancellation, deadline, budget) rather than a failure.
func isInterrupt(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// batchRun carries one Matrix invocation's exploration state. The memo is
// a statetab holding each reachable state's completability verdict
// inline: keys are the analyzer's packed []uint64 state words, and the
// value bit is "completable" (false while only interned by the forward
// pass, flipped true by the backward sweep). Keys use the canComplete
// discriminator byte, so a finished table serves as the analyzer's
// completion memo as is.
//
// The sweeps step the analyzer's own search state (pc, sem, ev and the
// depth-0 scratch slots); every per-pair query resets that state before
// it searches.
type batchRun struct {
	a   *Analyzer
	ctx context.Context

	table  *statetab.Table // packed state key → completable
	pcSeen *statetab.Table // pc signatures whose facts are already folded
	levels [][]uint64      // reachable packed keys by executed-action count, keyWords stride

	// pcSigWords/pcSigMask delimit the pc-counter prefix of a packed key
	// (pc bits come first in packKey's layout); sigBuf is scratch for
	// extracting signatures without allocating.
	pcSigWords int
	pcSigMask  uint64
	sigBuf     []uint64

	// Fact-folding scratch (ended set, not-begun set, in-progress list),
	// reused across every foldStateFacts call so the backward sweep does
	// not allocate per pc signature.
	foldEnded    []uint64
	foldNotBegun []uint64
	foldInProg   []int32

	// Per-event interval facts: canOrder[i] has bit j set iff some
	// feasible complete interleaving passes a state with i ended and j not
	// begun; canOverlap[i] bit j iff one passes a state with both in
	// progress.
	canOrder   [][]uint64
	canOverlap [][]uint64
	// seed is the optional fact bracket from MatrixOpts.Seed; needOrder /
	// needOverlap (nil when unseeded) mask fact folding down to the facts
	// the seed leaves undecided — decided facts are restored from the
	// seed's lower bounds by applySeedFacts after the sweeps.
	seed        *FactSeed
	needOrder   [][]uint64
	needOverlap [][]uint64
	factWords   int
	endedBits   [][][]uint64 // [proc][pc] events of proc already ended
	begunBits   [][][]uint64 // [proc][pc] events of proc already begun
	inProgEvent [][]int32    // [proc][pc] the one in-progress event, or -1
	semPfx      [][][]int32  // [proc][pc] cumulative semaphore deltas

	// symm enables orbit-canonical state keys: the forward sweep interns
	// only the least representative of each orbit, the backward sweep folds
	// facts for every orbit member, and pcSeen's aux word accumulates
	// which per-process sync-edge orbit folds a canonical signature has
	// already run. orbit is the orbit-enumeration walker.
	symm  bool
	orbit orbitWalker

	// onPhase mirrors MatrixOpts.OnPhase (nil when unobserved): explore
	// reports each sweep's wall time through it as the sweep ends.
	onPhase func(string, time.Duration)

	// phase/phaseLvl track which sweep is running and the level it is
	// processing, so an interrupt can checkpoint its exact position.
	// expanded and edges are cumulative across resumed attempts;
	// baseExpanded/baseEdges carry the resumed-from checkpoint's values
	// (zero on a fresh run), so the totals minus the base are this run's
	// own effort.
	phase        uint8
	phaseLvl     int
	expanded     int64
	edges        int64
	baseExpanded int64
	baseEdges    int64

	budget int64 // total state budget; ≤ 0 means unlimited
}

func newBatchRun(a *Analyzer, ctx context.Context, budget int64, sym bool, seed *FactSeed, ckpt *Checkpoint) (*batchRun, error) {
	n := len(a.x.Events)
	r := &batchRun{
		a:         a,
		ctx:       ctx,
		factWords: (n + 63) / 64,
		budget:    budget,
		symm:      sym,
		seed:      seed,
	}
	pcBitsTotal := len(a.pc) * int(a.pcBits)
	r.pcSigWords = (pcBitsTotal + 63) / 64
	if rem := uint(pcBitsTotal - (r.pcSigWords-1)*64); rem == 64 {
		r.pcSigMask = ^uint64(0)
	} else {
		r.pcSigMask = 1<<rem - 1
	}
	// The tables start empty and grow on demand: pre-sizing from the
	// product of per-process position counts was tried and regresses tiny
	// state spaces (the zeroing cost of a misjudged capacity dwarfs a
	// 100-node sweep) without measurably helping large ones.
	r.table = statetab.New(a.keyWords, 0)
	r.pcSeen = statetab.New(r.pcSigWords, 0)
	r.sigBuf = make([]uint64, r.pcSigWords)
	r.foldEnded = make([]uint64, r.factWords)
	r.foldNotBegun = make([]uint64, r.factWords)
	r.foldInProg = make([]int32, 0, len(a.procActs))
	newFacts := func() [][]uint64 {
		m := make([][]uint64, n)
		for i := range m {
			m[i] = make([]uint64, r.factWords)
		}
		return m
	}
	r.canOrder = newFacts()
	r.canOverlap = newFacts()
	if seed != nil {
		// Need-masks: bit j of needOrder[i] is set iff canOrder(i, j) is
		// still undecided after the seed. The fold loops AND against
		// these, so work already bracketed by the polynomial tiers is not
		// re-derived (and refuted facts, which the exploration would
		// never find anyway, cost nothing).
		r.needOrder = newFacts()
		r.needOverlap = newFacts()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				ei, ej := model.EventID(i), model.EventID(j)
				if !seed.orderDecided(ei, ej) {
					r.needOrder[i][j/64] |= 1 << uint(j%64)
				}
				if !seed.overlapDecided(ei, ej) {
					r.needOverlap[i][j/64] |= 1 << uint(j%64)
				}
			}
		}
	}
	if sym {
		r.orbit = orbitWalker{
			r:    r,
			pc:   make([]int32, len(a.pc)),
			used: make([]uint64, len(a.symmClasses)),
		}
	}
	r.precomputeIntervalTables()
	if ckpt != nil {
		if err := r.restore(ckpt); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// restore loads a validated checkpoint into the freshly built run: tables
// and folded facts are imported, the level lists are rebuilt by bucketing
// each key on its executed-action count (levels are a pure function of
// the program counters, so no separate frontier encoding is needed), and
// the budget counters resume cumulatively.
//
// States' aux words are dropped: checkpoints cut by builds that had
// sleep-set reduction carry each state's sleep mask there. Ignoring them
// is sound — such a run had still interned every state of every level up
// to the cut (sleep sets prune edges, never states), the re-run level is
// now expanded unreduced, and the backward sweep always walked the full
// enabled set.
func (r *batchRun) restore(ckpt *Checkpoint) error {
	states := *ckpt.States
	states.Aux = nil
	if err := r.table.Import(&states); err != nil {
		return err
	}
	if err := r.pcSeen.Import(ckpt.PcSeen); err != nil {
		return err
	}
	n := len(r.a.x.Events)
	for i := 0; i < n; i++ {
		copy(r.canOrder[i], ckpt.CanOrder[i*r.factWords:(i+1)*r.factWords])
		copy(r.canOverlap[i], ckpt.CanOverlap[i*r.factWords:(i+1)*r.factWords])
	}
	// Rebuild the per-level key lists. The forward sweep reaches levels
	// contiguously from 0, so bucketing by Σ pc reproduces them exactly
	// (in a different within-level order, which no verdict depends on).
	kw := r.a.keyWords
	maxLvl := 0
	r.table.Range(func(key []uint64, _ bool) bool {
		if lvl := r.keyLevel(key); lvl > maxLvl {
			maxLvl = lvl
		}
		return true
	})
	if ckpt.NextLevel > maxLvl {
		return errors.New("core: checkpoint frontier level exceeds its own state table")
	}
	r.levels = make([][]uint64, maxLvl+1)
	r.table.Range(func(key []uint64, _ bool) bool {
		lvl := r.keyLevel(key)
		r.levels[lvl] = append(r.levels[lvl], key[:kw]...)
		return true
	})
	r.phase = ckpt.Phase
	r.phaseLvl = ckpt.NextLevel
	r.expanded, r.baseExpanded = ckpt.Expanded, ckpt.Expanded
	r.edges, r.baseEdges = ckpt.Edges, ckpt.Edges
	return nil
}

// keyLevel computes the executed-action count of a packed key — the level
// the forward sweep reached it at — from its program counters (unpacked
// into the analyzer's search state).
func (r *batchRun) keyLevel(key []uint64) int {
	s := r.a
	s.unpackKey(key)
	lvl := 0
	for _, pc := range s.pc {
		lvl += int(pc)
	}
	return lvl
}

// decodeState loads the state encoded in a packed batch key (pc counters +
// event variable bits) into the analyzer's search state; semaphore
// counters are recomputed from the precomputed per-prefix deltas (they are
// a pure function of pc and deliberately not part of the key).
func (r *batchRun) decodeState(key []uint64) {
	s := r.a
	s.unpackKey(key)
	copy(s.sem, s.semInit)
	if len(s.sem) > 0 {
		for p := range s.procActs {
			for i, d := range r.semPfx[p][s.pc[p]] {
				s.sem[i] += d
			}
		}
	}
}

// pcSig extracts the pc-counter prefix of a packed key into the signature
// buffer (packKey lays the pc bit-fields out first, so the prefix is a
// word copy plus a final-word mask). Interval facts depend only on program
// counters, so states differing only in event variables share one fact
// derivation.
func (r *batchRun) pcSig(key []uint64) []uint64 {
	sig := r.sigBuf
	copy(sig, key[:r.pcSigWords])
	sig[r.pcSigWords-1] &= r.pcSigMask
	return sig
}

// precomputeIntervalTables builds, for every process p and program counter
// value k: the set of p's events already ended, already begun, the (at most
// one, by program order) event in progress, and the cumulative semaphore
// deltas of p's first k actions.
func (r *batchRun) precomputeIntervalTables() {
	a := r.a
	r.endedBits = make([][][]uint64, len(a.procActs))
	r.begunBits = make([][][]uint64, len(a.procActs))
	r.inProgEvent = make([][]int32, len(a.procActs))
	r.semPfx = make([][][]int32, len(a.procActs))
	for p := range a.procActs {
		steps := len(a.procActs[p])
		ended := make([][]uint64, steps+1)
		begun := make([][]uint64, steps+1)
		inProg := make([]int32, steps+1)
		semPfx := make([][]int32, steps+1)
		endedRun := make([]uint64, r.factWords)
		begunRun := make([]uint64, r.factWords)
		semRun := make([]int32, len(a.semInit))
		cur := int32(-1)
		for k := 0; k <= steps; k++ {
			ended[k] = append([]uint64(nil), endedRun...)
			begun[k] = append([]uint64(nil), begunRun...)
			inProg[k] = cur
			semPfx[k] = append([]int32(nil), semRun...)
			if k == steps {
				break
			}
			act := &a.acts[a.procActs[p][k]]
			ev := act.event
			switch act.kind {
			case actBegin:
				begunRun[ev/64] |= 1 << uint(ev%64)
				cur = ev
			case actEnd:
				endedRun[ev/64] |= 1 << uint(ev%64)
				cur = -1
			case actSync:
				begunRun[ev/64] |= 1 << uint(ev%64)
				endedRun[ev/64] |= 1 << uint(ev%64)
				cur = -1
				switch act.opKind {
				case model.OpAcquire:
					semRun[act.obj]--
				case model.OpRelease:
					semRun[act.obj]++
				}
			}
		}
		r.endedBits[p] = ended
		r.begunBits[p] = begun
		r.inProgEvent[p] = inProg
		r.semPfx[p] = semPfx
	}
}

// chargeState counts one expanded state against the batch budget.
func (r *batchRun) chargeState() error {
	r.expanded++
	if r.budget > 0 && r.expanded > r.budget {
		return ErrBudget
	}
	return nil
}

// runPhase calls fn for items 0..n-1 in order (callers index their flat
// key slice by i), polling the context every 64 items, and stops at the
// first error.
func (r *batchRun) runPhase(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if i%64 == 0 {
			if err := r.ctx.Err(); err != nil {
				return err
			}
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// explore runs the two level-synchronous sweeps: forward reachability and
// backward completability with fact folding fused in. On a resumed run
// the sweeps pick up at the checkpoint's phase and level; the interrupted
// level re-runs from scratch (every per-state step is deterministic and
// idempotent, so the re-run is invisible in the verdicts).
func (r *batchRun) explore() error {
	if r.levels == nil {
		// Fresh run: intern the initial state. Levels hold packed keys
		// inline (keyWords stride), so appending a key copies its words —
		// keys are owned by the level slice.
		s := r.a
		s.resetState()
		root := make([]uint64, s.keyWords)
		s.packKey(keyExtraComplete, root)
		r.levels = append(r.levels, root)
		r.table.Intern(root)
	}
	if r.phase == ckPhaseForward {
		start := time.Now()
		err := r.forward()
		r.emitPhase("forward", start)
		if err != nil {
			return err
		}
		r.phase = ckPhaseBackward
		r.phaseLvl = len(r.levels) - 1
	}
	start := time.Now()
	err := r.backward()
	r.emitPhase("backward", start)
	return err
}

// emitPhase reports one sweep's wall time through the OnPhase hook.
func (r *batchRun) emitPhase(name string, start time.Time) {
	if r.onPhase != nil {
		r.onPhase(name, time.Since(start))
	}
}

// forward expands each level's states starting at phaseLvl, deduping
// successors in the table. Levels are a topological order of the state
// DAG (each step executes exactly one action).
func (r *batchRun) forward() error {
	s := r.a
	kw := s.keyWords
	for lvl := r.phaseLvl; lvl < len(s.acts); lvl++ {
		r.phaseLvl = lvl
		frontier := r.levels[lvl]
		if len(frontier) == 0 {
			break
		}
		var next []uint64
		err := r.runPhase(len(frontier)/kw, func(i int) error {
			if err := r.chargeState(); err != nil {
				return err
			}
			key := frontier[i*kw : (i+1)*kw]
			r.decodeState(key)
			child := s.keySlot(0)
			// With symmetry on, successors are patched into raw scratch
			// and canonicalized into child before interning.
			raw := child
			if r.symm {
				raw = s.symmRaw
			}
			for _, id := range s.appendEnabled(s.enabledSlot(0)) {
				r.edges++
				s.patchChildKey(id, key, raw)
				if r.symm && s.canonicalizeKey(raw, child) {
					s.stats.SymmCollapses++
				}
				if r.table.Intern(child) {
					next = append(next, child...)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.levels = append(r.levels, next)
	}
	return nil
}

// backward decides completability per level, phaseLvl down to first; it
// folds state facts for every completable state as its verdict lands, and
// edge facts for every sync action connecting two completable states.
// Every state and child key was interned by the forward pass, so the
// backward writes only flip existing value bits.
func (r *batchRun) backward() error {
	s := r.a
	kw := s.keyWords
	for lvl := r.phaseLvl; lvl >= 0; lvl-- {
		r.phaseLvl = lvl
		level := r.levels[lvl]
		err := r.runPhase(len(level)/kw, func(i int) error {
			key := level[i*kw : (i+1)*kw]
			r.decodeState(key)
			completable := false
			var syncMask uint64
			if s.allDone() {
				completable = true
			} else {
				enabled := s.appendEnabled(s.enabledSlot(0))
				child := s.keySlot(0)
				for _, id := range enabled {
					s.patchChildKey(id, key, child)
					ck := child
					if r.symm {
						// The table holds canonical keys only; the child of
						// a canonical state need not be canonical itself.
						s.canonicalizeKey(child, s.symmRaw)
						ck = s.symmRaw
					}
					childOK, _ := r.table.Lookup(ck)
					if !childOK {
						continue
					}
					completable = true
					if s.acts[id].kind == actSync {
						if r.symm {
							// Deferred: the orbit fold below replays this
							// edge for every orbit member, deduped through
							// pcSeen's accumulated fold mask.
							syncMask |= 1 << uint(s.acts[id].proc)
						} else {
							// Edge rule: the atomic event fires here, inside
							// the interval of every in-progress event.
							r.foldSyncOverlap(s.pc, s.acts[id].event)
						}
					}
				}
			}
			if completable {
				r.table.Store(key, true)
				if r.symm {
					r.orbit.fold(s, key, syncMask)
				} else if r.pcSeen.Intern(r.pcSig(key)) {
					r.foldStateFacts(s.pc)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// foldStateFacts derives the interval facts visible at the reachable,
// completable state with program counters pc: every ended event can-order
// every not-yet-begun event, and every pair of in-progress events can
// overlap. It depends on the state only through pc (the interval tables
// are indexed [proc][pc]), which is what lets the orbit walker fold
// members whose packed keys were never materialized. Facts fold straight
// into canOrder/canOverlap: each is set only from a state already proven
// reachable and completable, so an interrupted run's partial matrices and
// checkpoint hold only final facts.
func (r *batchRun) foldStateFacts(pc []int32) {
	n := len(r.a.x.Events)
	ended, notBegun := r.foldEnded, r.foldNotBegun
	for i := 0; i < r.factWords; i++ {
		ended[i], notBegun[i] = 0, 0
	}
	inProg := r.foldInProg[:0]
	for p := range pc {
		pcp := pc[p]
		eb := r.endedBits[p][pcp]
		bb := r.begunBits[p][pcp]
		for i := 0; i < r.factWords; i++ {
			ended[i] |= eb[i]
			notBegun[i] |= bb[i] // accumulate begun; complement below
		}
		if ev := r.inProgEvent[p][pcp]; ev >= 0 {
			inProg = append(inProg, ev)
		}
	}
	// notBegun currently holds begun; complement within n bits.
	for i := 0; i < r.factWords; i++ {
		notBegun[i] = ^notBegun[i]
	}
	if n%64 != 0 {
		notBegun[r.factWords-1] &= (1 << uint(n%64)) - 1
	}
	order := r.canOrder
	for wi := 0; wi < r.factWords; wi++ {
		word := ended[wi]
		for word != 0 {
			i := wi*64 + bits.TrailingZeros64(word)
			row := order[i]
			if need := r.needOrder; need != nil {
				ni := need[i]
				for j := 0; j < r.factWords; j++ {
					row[j] |= notBegun[j] & ni[j]
				}
			} else {
				for j := 0; j < r.factWords; j++ {
					row[j] |= notBegun[j]
				}
			}
			word &= word - 1
		}
	}
	overlap := r.canOverlap
	for x := 0; x < len(inProg); x++ {
		for y := x + 1; y < len(inProg); y++ {
			e, f := inProg[x], inProg[y]
			r.setOverlap(overlap, e, f)
			r.setOverlap(overlap, f, e)
		}
	}
}

// setOverlap records canOverlap(e, f) in acc unless the seed already
// decided that fact.
func (r *batchRun) setOverlap(acc [][]uint64, e, f int32) {
	if r.needOverlap != nil && r.needOverlap[e][f/64]&(1<<uint(f%64)) == 0 {
		return
	}
	acc[e][f/64] |= 1 << uint(f%64)
}

// foldSyncOverlap records that atomic event ev, firing from the state with
// program counters pc on a path to completion, overlaps every event in
// progress there (in-progress events belong to other processes by
// construction: a sync action is enabled only when it is its own process's
// next action). Like foldStateFacts it reads only pc, for the orbit
// walker's sake.
func (r *batchRun) foldSyncOverlap(pc []int32, ev int32) {
	overlap := r.canOverlap
	for p := range pc {
		if f := r.inProgEvent[p][pc[p]]; f >= 0 {
			r.setOverlap(overlap, ev, f)
			r.setOverlap(overlap, f, ev)
		}
	}
}

// applySeedFacts restores the seed's lower-bound facts into the master
// matrices after the sweeps: the fold masks excluded seed-decided facts
// from derivation, so proven-true facts re-enter here and proven-false
// facts stay clear (a sound exploration could never have set them). The
// union is exactly the unseeded exploration's matrices — the seeded run
// only skipped re-deriving what the polynomial tiers already knew.
func (r *batchRun) applySeedFacts() {
	if r.seed == nil {
		return
	}
	restore := func(rel *model.Relation, facts [][]uint64) {
		if rel == nil {
			return
		}
		for _, p := range rel.Pairs() {
			facts[p[0]][p[1]/64] |= 1 << uint(p[1]%64)
		}
	}
	restore(r.seed.Order, r.canOrder)
	restore(r.seed.Overlap, r.canOverlap)
}

// fact reads bit j of facts[i].
func (r *batchRun) fact(facts [][]uint64, i, j int) bool {
	return facts[i][j/64]&(1<<uint(j%64)) != 0
}

// orbitWalker replays a canonical backward-sweep state's fact folds for
// every member of its orbit, keeping the symmetry-reduced run's matrices
// bit-identical to the unreduced engine's: the unreduced backward sweep
// visits each member as a real state and folds there; the reduced sweep
// visits only the representative, so the walker reconstructs the member
// program counters (facts depend on states only through pc) and folds the
// same set. All walk state lives in the struct and recursion is by method,
// so enumeration allocates nothing per state.
//
// Dedup matches the unreduced run's exactly. State facts fold once per pc
// signature — the walker runs them only when the canonical signature was
// fresh in pcSeen, and then covers every member signature (orbits
// partition states, so no other canonical state reaches these members).
// Sync-edge folds are per (signature, acting process): pcSeen's aux word
// accumulates, per canonical signature, the canonical processes whose
// edge folds have run, so ev-variant states sharing a signature replay
// each process's orbit folds exactly once (the folded pairs depend only
// on the signature, making the replay idempotent — same union of bits as
// the unreduced run's per-state folds).
type orbitWalker struct {
	r       *batchRun
	canon   []int32  // canonical pc (borrowed from the analyzer's search state)
	pc      []int32  // member pc under construction
	used    []uint64 // per-class taken-position bitmaps for the recursion
	fresh   bool     // canonical signature was new: fold member state facts
	newSync uint64   // canonical procs whose sync-edge folds run this walk
}

// fold is the walker's entry point: s (the run's analyzer) sits decoded
// at the canonical state whose packed key is key, and syncMask holds the
// processes whose enabled sync action led to a completable child there.
func (o *orbitWalker) fold(s *Analyzer, key []uint64, syncMask uint64) {
	r := o.r
	fresh, old := r.pcSeen.InternAuxOr(r.pcSig(key), syncMask)
	o.fresh = fresh
	o.newSync = syncMask &^ old
	if !fresh && o.newSync == 0 {
		return
	}
	o.canon = s.pc
	copy(o.pc, s.pc)
	o.walk(s, 0)
}

// walk recurses over the symmetry classes; when all are assigned, the pc
// vector names one orbit member and emit folds its facts. Processes
// outside every class keep their canonical counters (pc starts as a copy).
func (o *orbitWalker) walk(s *Analyzer, ci int) {
	if ci == len(s.symmClasses) {
		o.emit(s)
		return
	}
	o.place(s, ci, 0)
}

// place assigns class ci's j-th member one of the class's canonical pc
// values, each canonical position used once per member assignment.
// Duplicate values generate identical assignments; skipping a position
// whose equal left neighbor is still unused enumerates each distinct
// member exactly once (the standard distinct-permutations recursion).
func (o *orbitWalker) place(s *Analyzer, ci, j int) {
	class := s.symmClasses[ci]
	if j == len(class) {
		o.walk(s, ci+1)
		return
	}
	for i := 0; i < len(class); i++ {
		if o.used[ci]&(1<<uint(i)) != 0 {
			continue
		}
		v := o.canon[class[i]]
		if i > 0 && v == o.canon[class[i-1]] && o.used[ci]&(1<<uint(i-1)) == 0 {
			continue
		}
		o.used[ci] |= 1 << uint(i)
		o.pc[class[j]] = v
		o.place(s, ci, j+1)
		o.used[ci] &^= 1 << uint(i)
	}
}

// emit folds one orbit member's facts. For a sync-edge fold of canonical
// process p, the member's acting processes are exactly the members of p's
// class whose counter sits at p's canonical position — each corresponds to
// an automorphism mapping the canonical state to this member and p to that
// process — so the member's own event at that position is folded for each.
func (o *orbitWalker) emit(s *Analyzer) {
	r := o.r
	if o.fresh {
		r.foldStateFacts(o.pc)
	}
	for m := o.newSync; m != 0; m &= m - 1 {
		p := int32(bits.TrailingZeros64(m))
		pos := o.canon[p]
		ci := s.symmClassOf[p]
		if ci < 0 {
			r.foldSyncOverlap(o.pc, s.acts[s.procActs[p][pos]].event)
			continue
		}
		for _, q := range s.symmClasses[ci] {
			if o.pc[q] == pos {
				r.foldSyncOverlap(o.pc, s.acts[s.procActs[q][pos]].event)
			}
		}
	}
}

// checkpoint captures the interrupted run's position and knowledge. A
// forward-phase capture drops the keys of the partially interned next
// level (they must re-enter the frontier as fresh when the level re-runs)
// — their level is recoverable from each key's program counters, so the
// filter needs no bookkeeping from the hot loops.
func (r *batchRun) checkpoint() *Checkpoint {
	n := len(r.a.x.Events)
	c := &Checkpoint{
		Fingerprint: r.a.fingerprint(),
		Symm:        r.symm,
		Phase:       r.phase,
		NextLevel:   r.phaseLvl,
		Expanded:    r.expanded,
		Edges:       r.edges,
		NumEvents:   n,
		PcSeen:      r.pcSeen.Export(),
		CanOrder:    flattenFacts(r.canOrder, r.factWords),
		CanOverlap:  flattenFacts(r.canOverlap, r.factWords),
	}
	snap := r.table.Export()
	if r.phase == ckPhaseForward {
		filtered := &statetab.Snapshot{Words: snap.Words}
		for i := 0; i < snap.Entries; i++ {
			key := snap.Key(i)
			if r.keyLevel(key) > r.phaseLvl {
				continue
			}
			filtered.Append(key, snap.Val(i))
		}
		snap = filtered
	}
	c.States = snap
	if r.seed != nil {
		c.HasSeed = true
		c.SeedOrder = seedPairs(r.seed.Order)
		c.SeedNoOrder = seedPairs(r.seed.NoOrder)
		c.SeedOverlap = seedPairs(r.seed.Overlap)
		c.SeedNoOverlap = seedPairs(r.seed.NoOverlap)
	}
	return c
}

// flattenFacts lays the per-event fact rows out row-major for the
// checkpoint's flat encoding.
func flattenFacts(rows [][]uint64, words int) []uint64 {
	out := make([]uint64, 0, len(rows)*words)
	for _, row := range rows {
		out = append(out, row...)
	}
	return out
}

// orderVerdict is the partial-run three-valued reading of canOrder(a, b):
// a folded or seed-restored bit proves it true; only the seed can refute
// it before the exploration completes (absence of a witness is evidence
// only once every reachable completable state has been folded).
func (r *batchRun) orderVerdict(a, b model.EventID) Verdict {
	if r.fact(r.canOrder, int(a), int(b)) {
		return VerdictTrue
	}
	if r.seed != nil && seedHas(r.seed.NoOrder, a, b) {
		return VerdictFalse
	}
	return VerdictUnknown
}

// overlapVerdict is orderVerdict's canOverlap counterpart.
func (r *batchRun) overlapVerdict(a, b model.EventID) Verdict {
	if r.fact(r.canOverlap, int(a), int(b)) {
		return VerdictTrue
	}
	if r.seed != nil && seedHas(r.seed.NoOverlap, a, b) {
		return VerdictFalse
	}
	return VerdictUnknown
}

// partialResult assembles the interrupted run's three-valued matrices:
// per kind, the pairs proven to hold and the pairs still open. Callers
// must have applied the seed first.
func (r *batchRun) partialResult(kinds []RelKind, cause error) *MatrixResult {
	n := len(r.a.x.Events)
	res := &MatrixResult{
		Kinds:      append([]RelKind(nil), kinds...),
		Relations:  make(map[RelKind]*model.Relation, len(kinds)),
		Undecided:  make(map[RelKind]*model.Relation, len(kinds)),
		Checkpoint: r.checkpoint(),
		Cause:      cause,
		Expanded:   r.expanded,
	}
	for _, kind := range kinds {
		rel := model.NewRelation(kind.String(), n)
		und := model.NewRelation(kind.String()+"-undecided", n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				ei, ej := model.EventID(i), model.EventID(j)
				v := verdictFromFacts(kind,
					r.orderVerdict(ei, ej), r.orderVerdict(ej, ei), r.overlapVerdict(ei, ej))
				switch v {
				case VerdictTrue:
					rel.Set(ei, ej)
				case VerdictUnknown:
					und.Set(ei, ej)
				}
			}
		}
		res.Relations[kind] = rel
		res.Undecided[kind] = und
	}
	return res
}

// completeResult reads every verdict out of the finished exploration's
// fact matrices (two-valued: absence of a witness is now proof of
// absence).
func (r *batchRun) completeResult(kinds []RelKind) *MatrixResult {
	n := len(r.a.x.Events)
	out := make(map[RelKind]*model.Relation, len(kinds))
	for _, kind := range kinds {
		rel := model.NewRelation(kind.String(), n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				ordIJ := r.fact(r.canOrder, i, j)
				ordJI := r.fact(r.canOrder, j, i)
				ovl := r.fact(r.canOverlap, i, j)
				var holds bool
				switch kind {
				case RelCHB:
					holds = ordIJ
				case RelMHB:
					holds = !ordJI && !ovl
				case RelCCW:
					holds = ovl
				case RelMCW:
					holds = !ordIJ && !ordJI
				case RelCOW:
					holds = ordIJ || ordJI
				case RelMOW:
					holds = !ovl
				}
				if holds {
					rel.Set(model.EventID(i), model.EventID(j))
				}
			}
		}
		out[kind] = rel
	}
	return &MatrixResult{
		Complete:  true,
		Kinds:     append([]RelKind(nil), kinds...),
		Relations: out,
		Expanded:  r.expanded,
	}
}

// handOverMemo installs the finished state table as the analyzer's
// persistent completion memo (batch keys use the canComplete
// discriminator byte), so per-pair queries issued after a Matrix call
// start with the whole reachable space memoized. The table replaces the
// previous memo instead of merging into it: it holds every reachable
// state under the run's keys, and those include every key a per-pair
// query memoizes (orbit-canonical keys when the analyzer reduces
// symmetry, raw keys otherwise).
func (r *batchRun) handOverMemo() {
	if r.a.opts.DisableMemo {
		return
	}
	r.a.memoComplete = r.table
}
