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
// every event in progress there. The pass folds this edge rule alongside
// the state rules. (Two atomic events can never overlap.)
//
// The engine runs one post-order depth-first pass over the state DAG from
// the initial state — canComplete's traversal without its early exit, over
// the same memo keys. Each reachable state is entered once; when its last
// child returns, its completability is final, so it is stored and, when
// completable, its facts fold into the two matrices. The pass runs on the
// calling goroutine. A non-symmetric pass whose position product fits
// cellLimit stores states in a cellMemo addressed by position (cells.go);
// the others store them in a hashed state table. A complete run hands its
// memo to the analyzer as its completion memo.

// MatrixOpts configures Analyzer.Matrix (and the planning layers built on
// it: plan.Analyze and the eventorder.AnalyzeMatrix facade).
type MatrixOpts struct {
	// Workers is ignored: Matrix runs on the calling goroutine.
	//
	// Deprecated: fan-out never paid at the trace sizes the engine accepts
	// and was removed; the field remains so existing callers compile.
	Workers int
	// Budget bounds the number of states the whole batch finishes; 0
	// inherits Options.MaxNodes as the total-batch budget. The pass
	// finishes each reachable non-final state once, so a total budget (not
	// a per-query one) is the natural unit. A state is charged when its
	// last child returns: one an interrupt leaves open costs nothing and is
	// entered again, free, on resume. When the budget runs out the analysis
	// returns a partial MatrixResult carrying a Checkpoint; a resumed run
	// charges the budget cumulatively (a budget of B names B finished
	// states across all attempts). The count is the same whichever memo
	// layout the pass runs over.
	Budget int64
	// Tiers caps the polynomial planning cascade for the layers above the
	// exact engine (plan.Analyze, eventorder.AnalyzeMatrix): 0 runs every
	// tier, 1..MaxPlanTiers a prefix, negative disables planning.
	// Analyzer.Matrix itself ignores it — the plan arrives via Seed.
	Tiers int
	// DisablePOR is ignored, like Options.DisablePOR.
	//
	// Deprecated: sleep-set reduction was removed from the batch engine;
	// the field remains so existing callers compile.
	DisablePOR bool
	// DisableSymm turns off process-symmetry orbit collapsing for this
	// batch's pass (it is also off whenever the analyzer's
	// Options.DisableSymm is set or no nontrivial group was detected).
	// Matrices are bit-identical either way: the pass enters one
	// canonical representative per orbit and folds facts for every orbit
	// member through the inverse permutations. A resumed run inherits the
	// checkpoint's setting — and refuses to resume a symmetry-reduced
	// checkpoint (whose stored keys are canonical) with symmetry disabled.
	DisableSymm bool
	// Seed carries primitive interval facts proven by a polynomial
	// pre-analysis (internal/plan builds one): a lower bound (facts proven
	// true) and an upper bound (facts proven false) on the canOrder /
	// canOverlap matrices the exploration would otherwise derive. Facts
	// the seed proves true join the exploration's after the pass, facts it
	// refutes settle a partial result's open verdicts, and when the
	// bracket decides every requested verdict the exploration is skipped
	// entirely. A sound seed leaves every verdict bit-identical to an
	// unseeded run; an inconsistent one is rejected. Nil runs unseeded.
	// Mutually exclusive with Resume (the seed travels inside the
	// checkpoint).
	Seed *FactSeed
	// Resume continues an interrupted analysis from the checkpoint a
	// partial MatrixResult carried. The resumed run must target the same
	// execution and IgnoreData setting (enforced by fingerprint).
	// Interrupted-then-resumed analyses produce matrices bit-identical to
	// one-shot runs.
	Resume *Checkpoint
	// OnPhase, when non-nil, observes coarse span timings as the analysis
	// runs: the batch engine reports "search" (the depth-first pass, fact
	// folding included) once as the pass ends — on an interrupted run, for
	// the part that ran. Layers above add their own spans
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
	decided := m.TotalPairs()
	if m.Complete || len(m.Kinds) == 0 {
		return decided
	}
	first := m.Undecided[m.Kinds[0]]
	open := make([]uint64, (first.N()+63)/64)
	for a := 0; a < first.N(); a++ {
		for w := range open {
			open[w] = 0
		}
		for _, kind := range m.Kinds {
			orWords(open, m.Undecided[kind].Row(model.EventID(a)).Words())
		}
		for _, w := range open {
			decided -= bits.OnesCount64(w)
		}
	}
	return decided
}

// Matrix computes relation matrices for kinds (nil or empty = all six)
// from one shared exploration of the feasibility state space. Complete
// verdicts are bit-identical to per-pair Relation calls; only the work
// differs: the exponential space is walked once instead of O(n²) times. Options.DisableMemo does not change the
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
// On a complete run the batch's state memo becomes the analyzer's
// persistent completion memo, so later per-pair queries on the same
// analyzer start warm (a position-addressed memo is converted to a state
// table by the first such query, never by Matrix); an interrupted run
// leaves the memo untouched.
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
		// canonicalizer would treat representatives as the only finished
		// states, so the mismatch is an error rather than a downgrade. A raw-key
		// checkpoint resumes raw on any analyzer.
		if ckpt.Symm && (opts.DisableSymm || !a.symmetry()) {
			return nil, badCheckpoint("checkpoint was cut from a symmetry-reduced run; resume with Options.DisableSymm and MatrixOpts.DisableSymm unset")
		}
	}
	// bracket is the seed in row form; an interrupted pass reads its
	// refuted side.
	var bracket factRows
	if seed != nil {
		if err := seed.Validate(n); err != nil {
			if ckpt != nil {
				return nil, badCheckpoint("checkpoint seed: %v", err)
			}
			return nil, err
		}
		bracket = seed.rows(n)
		// Fully bracketed: every requested verdict follows from the seed,
		// so the exponential exploration is unnecessary. Nothing is
		// explored or memoized on this path (Stats stay untouched). A
		// resume never lands here — a checkpoint exists only because the
		// seed did not decide everything.
		if ckpt == nil && bracket.decidesAll(kinds) {
			out, _ := bracket.relations(kinds, false)
			return &MatrixResult{Complete: true, Kinds: append([]RelKind(nil), kinds...), Relations: out}, nil
		}
	}

	// The search runs from here on, so symmetry is detected now; a
	// checkpoint keeps the setting of the run it was cut from.
	sym := a.symmetry() && !opts.DisableSymm
	if ckpt != nil {
		sym = ckpt.Symm
	}
	run, err := newBatchRun(a, ctx, budget, sym, seed, ckpt)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	err = run.search()
	if opts.OnPhase != nil {
		opts.OnPhase("search", time.Since(start))
	}
	if err != nil {
		if !isInterrupt(err) {
			return nil, err
		}
		// Interrupted with value: fold what the pass proved so far (all
		// of it sound — positive facts come only from states already
		// proven reachable and completable) into a partial result, and
		// leave the analyzer's persistent memo untouched so no partial
		// verdict is ever served as complete.
		run.settleFacts()
		return run.partialResult(kinds, &bracket, err), nil
	}
	a.stats.Nodes += run.expanded - run.baseExpanded
	a.stats.Edges += run.edges - run.baseEdges
	run.handOverMemo()
	run.settleFacts()
	return run.completeResult(kinds), nil
}

// isInterrupt reports whether err is an interruption that yields a
// partial result (cancellation, deadline, budget) rather than a failure.
func isInterrupt(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// batchRun carries one Matrix invocation's exploration state. The memo
// holds each finished state's completability verdict, in one of two
// layouts. A non-symmetric pass whose cell count fits the analyzer's cell
// limit uses cells, two bits per state addressed by position, and cells'
// fold bitset. Every other pass uses table, a statetab keyed by the
// analyzer's packed []uint64 state words with the value bit
// "completable", and pcSeen. A state enters the memo only when its last
// child returns, so every entry is final. Keys use the canComplete
// discriminator byte, so a finished table serves as the analyzer's
// completion memo as is.
//
// The pass steps the analyzer's own search state (pc, sem, ev and the
// per-depth scratch slots); every per-pair query resets that state before
// it searches.
type batchRun struct {
	a   *Analyzer
	ctx context.Context

	cells  *cellMemo       // position-addressed memo, or nil
	table  *statetab.Table // packed state key → completable, finished states only
	pcSeen *statetab.Table // pc signatures whose facts are already folded

	// pcSigWords/pcSigMask delimit the pc-counter prefix of a packed key
	// (pc bits come first in packKey's layout); sigBuf is scratch for
	// extracting signatures without allocating.
	pcSigWords int
	pcSigMask  uint64
	sigBuf     []uint64

	// Fact-folding scratch (not-begun set, in-progress list), reused
	// across every foldStateFacts call so the pass does not allocate per
	// pc signature.
	foldNotBegun []uint64
	foldInProg   []int32

	// Per-event interval facts: canOrder[i] has bit j set iff some
	// feasible complete interleaving passes a state with i ended and j not
	// begun; canOverlap[i] bit j iff one passes a state with both in
	// progress. canOrder is complete only after settleFacts: the pass
	// accumulates order facts per process position in orderAcc instead.
	canOrder   [][]uint64
	canOverlap [][]uint64
	orderT     [][]uint64 // canOrder's transpose, filled by the result assembly
	// seed is the optional fact bracket from MatrixOpts.Seed; settleFacts
	// restores its proven facts after the pass.
	seed        *FactSeed
	factWords   int
	begunBits   [][][]uint64 // [proc][pc] events of proc already begun
	inProgEvent [][]int32    // [proc][pc] the one in-progress event, or -1
	// orderAcc[p][k] is the union of the not-begun sets of the completable
	// pc signatures folded with pc[p] = k.
	orderAcc [][][]uint64

	// symm enables orbit-canonical state keys: the pass enters only the
	// least representative of each orbit and folds facts for every orbit
	// member, and pcSeen's aux word accumulates which per-process
	// sync-edge orbit folds a canonical signature has already run. orbit
	// is the orbit-enumeration walker.
	symm  bool
	orbit orbitWalker

	// expanded and edges count finished states and their successor
	// transitions, cumulative across resumed attempts;
	// baseExpanded/baseEdges carry the resumed-from checkpoint's values
	// (zero on a fresh run), so the totals minus the base are this run's
	// own effort. entered counts state entries for context polling.
	expanded     int64
	edges        int64
	baseExpanded int64
	baseEdges    int64
	entered      uint32

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
	r.pcSigWords, r.pcSigMask = a.pcSigGeometry()
	if !sym {
		r.cells = newCellMemo(a, a.maxCells)
	}
	if r.cells == nil {
		// The tables start empty and grow on demand: they serve symmetric
		// passes, whose orbit representatives are a small share of the
		// position product, and products above the cell limit, which are
		// too large to size up front. Passes small enough to size exactly
		// run over cells instead.
		r.table = statetab.New(a.keyWords, 0)
		r.pcSeen = statetab.New(r.pcSigWords, 0)
		r.sigBuf = make([]uint64, r.pcSigWords)
	}
	r.foldNotBegun = make([]uint64, r.factWords)
	r.foldInProg = make([]int32, 0, len(a.procActs))
	facts := newFactRows(3*n, n)
	r.canOrder, r.canOverlap, r.orderT = facts[:n:n], facts[n:2*n:2*n], facts[2*n:]
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

// restore loads a validated checkpoint into the freshly built run: the
// finished states, the folded facts and the pc signatures behind them are
// imported, and the budget counters resume cumulatively. The resumed pass
// starts over from the root with the imported states as memo hits.
func (r *batchRun) restore(ckpt *Checkpoint) error {
	if r.cells != nil {
		r.cells.restore(r.a, ckpt.finishedStates(r.a), ckpt.PcSeen)
	} else {
		if err := r.table.Import(ckpt.finishedStates(r.a)); err != nil {
			return err
		}
		if err := r.pcSeen.Import(ckpt.PcSeen); err != nil {
			return err
		}
	}
	n := len(r.a.x.Events)
	for i := 0; i < n; i++ {
		copy(r.canOrder[i], ckpt.CanOrder[i*r.factWords:(i+1)*r.factWords])
		copy(r.canOverlap[i], ckpt.CanOverlap[i*r.factWords:(i+1)*r.factWords])
	}
	r.expanded, r.baseExpanded = ckpt.Expanded, ckpt.Expanded
	r.edges, r.baseEdges = ckpt.Edges, ckpt.Edges
	return nil
}

// pcSigGeometry returns the word count of a pc signature, the pc-counter
// prefix of a packed key (pc bits come first in packKey's layout), and the
// mask of the pc bits in its last word.
func (a *Analyzer) pcSigGeometry() (words int, lastMask uint64) {
	pcBitsTotal := len(a.pc) * int(a.pcBits)
	words = (pcBitsTotal + 63) / 64
	if rem := uint(pcBitsTotal - (words-1)*64); rem < 64 {
		return words, 1<<rem - 1
	}
	return words, ^uint64(0)
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
// value k: the set of p's events already begun, the (at most one, by
// program order) event in progress, and an empty order accumulator row.
func (r *batchRun) precomputeIntervalTables() {
	a := r.a
	fw := r.factWords
	r.begunBits = make([][][]uint64, len(a.procActs))
	r.inProgEvent = make([][]int32, len(a.procActs))
	r.orderAcc = make([][][]uint64, len(a.procActs))
	// Every position of every process is carved from one backing array per
	// kind, so the tables cost a constant number of allocations.
	positions := len(a.acts) + len(a.procActs)
	rows := make([][]uint64, 2*positions)
	words := make([]uint64, 2*positions*fw)
	inProgs := make([]int32, positions)
	for p, ids := range a.procActs {
		n := len(ids) + 1
		begun, acc, inProg := rows[:n:n], rows[n:2*n:2*n], inProgs[:n:n]
		rows, inProgs = rows[2*n:], inProgs[n:]
		cur := int32(-1)
		for k := 0; k < n; k++ {
			begun[k], acc[k] = words[:fw:fw], words[fw:2*fw:2*fw]
			words = words[2*fw:]
			if k > 0 {
				copy(begun[k], begun[k-1])
				act := &a.acts[ids[k-1]]
				ev := act.event
				switch act.kind {
				case actBegin:
					begun[k][ev/64] |= 1 << uint(ev%64)
					cur = ev
				case actEnd:
					cur = -1
				case actSync:
					begun[k][ev/64] |= 1 << uint(ev%64)
					cur = -1
				}
			}
			inProg[k] = cur
		}
		r.begunBits[p], r.orderAcc[p], r.inProgEvent[p] = begun, acc, inProg
	}
}

// batchPollInterval is how many state entries pass between context
// polls. A state costs around a microsecond, so polling every 16 keeps
// cancellation latency far below a millisecond, while even the smallest
// traces poll more than once.
const batchPollInterval = 16

// search runs the depth-first pass from the initial state. On a resumed
// run the pass starts over from the root; the checkpoint's finished states
// are memo hits, so only the states the interrupt left open are entered
// again.
func (r *batchRun) search() error {
	s := r.a
	s.resetState()
	at := 0
	if r.cells != nil {
		at = r.cells.index(s.pc, s.ev)
	} else {
		s.packKey(keyExtraComplete, s.keySlot(0))
	}
	_, err := r.visit(0, at)
	return err
}

// visit runs the pass below the current state — the analyzer's search
// state, which is not in the memo — and returns whether it can complete.
// Over cells the state is cell at; over the table its key
// (orbit-canonical under symmetry) is in keySlot(depth). Children already
// in the memo are looked up; new ones are entered by stepping the
// analyzer's state (under symmetry, into the child's canonical
// representative) and unstepping on return. A sync action into a
// completable child folds its edge facts as the child returns (under
// symmetry, with the state's orbit fold). When the last child returns the
// state is charged, stored and, when completable, its state facts fold.
// The layouts differ only in how a child's slot is found, read and
// written.
func (r *batchRun) visit(depth, at int) (bool, error) {
	s := r.a
	if r.entered%batchPollInterval == 0 {
		if err := r.ctx.Err(); err != nil {
			return false, err
		}
	}
	r.entered++
	var key, child, raw []uint64
	if r.cells == nil {
		key = s.keySlot(depth)
		child = s.keySlot(depth + 1)
		// With symmetry on, successors are patched into raw scratch and
		// canonicalized into child before the lookup.
		raw = child
		if r.symm {
			raw = s.symmRaw
		}
	}
	if s.allDone() {
		r.finish(key, at, true, 0)
		return true, nil
	}
	enabled := s.appendEnabled(s.enabledSlot(depth))
	completable := false
	var syncMask uint64
	for _, id := range enabled {
		var ok, done, moved bool
		next := at
		if r.cells != nil {
			next = r.cells.child(at, &s.acts[id])
			ok, done = r.cells.lookup(next)
		} else {
			s.patchChildKey(id, key, raw)
			moved = r.symm && s.canonicalizeKey(raw, child)
			if moved {
				s.stats.SymmCollapses++
			}
			ok, done = r.table.Lookup(child)
		}
		if !done {
			undo := s.step(id)
			if moved {
				// The representative differs from the stepped state only
				// in its class members' counters; semaphores and event
				// variables are fixed by the permutation.
				s.unpackKey(child)
			}
			var err error
			ok, err = r.visit(depth+1, next)
			s.unstep(id, undo)
			if moved {
				s.unpackKey(key)
			}
			if err != nil {
				return false, err
			}
		}
		if !ok {
			continue
		}
		completable = true
		if act := &s.acts[id]; act.kind == actSync {
			if r.symm {
				// Deferred: the orbit fold replays this edge for every
				// orbit member, deduped through pcSeen's fold mask.
				syncMask |= 1 << uint(act.proc)
			} else {
				// Edge rule: the atomic event fires here, inside the
				// interval of every in-progress event.
				r.foldSyncOverlap(s.pc, act.event)
			}
		}
	}
	// Charge the finished state with its transitions. A state whose charge
	// would exceed the budget stays open: it is neither stored nor folded,
	// and a resumed pass enters it again without charging it twice.
	if r.budget > 0 && r.expanded >= r.budget {
		return false, ErrBudget
	}
	r.expanded++
	r.edges += int64(len(enabled))
	r.finish(key, at, completable, syncMask)
	return completable, nil
}

// finish stores the finished current state — cell at, or key in the
// table — and, when it is completable, folds its facts: its state facts
// once per pc signature, and, under symmetry, both kinds for every orbit
// member (syncMask names the processes whose sync action led to a
// completable child).
func (r *batchRun) finish(key []uint64, at int, completable bool, syncMask uint64) {
	if r.cells != nil {
		r.cells.store(at, completable)
		if completable && r.cells.markSeen(at) {
			r.foldStateFacts(r.a.pc)
		}
		return
	}
	r.table.Store(key, completable)
	if !completable {
		return
	}
	if r.symm {
		r.orbit.fold(r.a, key, syncMask)
	} else if r.pcSeen.Intern(r.pcSig(key)) {
		r.foldStateFacts(r.a.pc)
	}
}

// foldStateFacts derives the interval facts visible at the reachable,
// completable state with program counters pc: every ended event can-order
// every not-yet-begun event, and every pair of in-progress events can
// overlap. It depends on the state only through pc (the interval tables
// are indexed [proc][pc]), which is what lets the orbit walker fold
// members whose packed keys were never materialized. An event of process
// p is ended exactly when pc[p] is past its end, so the not-begun set is
// ORed once per process, into orderAcc[p][pc[p]], and settleFacts hands it
// to the ended events; overlap facts fold straight into canOverlap. Each
// fact is set only from a state already proven reachable and completable,
// so an interrupted run's partial matrices and checkpoint hold only final
// facts.
func (r *batchRun) foldStateFacts(pc []int32) {
	n := len(r.a.x.Events)
	notBegun := r.foldNotBegun
	for i := range notBegun {
		notBegun[i] = 0
	}
	inProg := r.foldInProg[:0]
	for p, k := range pc {
		orWords(notBegun, r.begunBits[p][k]) // accumulate begun; complement below
		if ev := r.inProgEvent[p][k]; ev >= 0 {
			inProg = append(inProg, ev)
		}
	}
	for i := range notBegun {
		notBegun[i] = ^notBegun[i]
	}
	if n%64 != 0 {
		notBegun[r.factWords-1] &= (1 << uint(n%64)) - 1
	}
	for p, k := range pc {
		orWords(r.orderAcc[p][k], notBegun)
	}
	for x := 0; x < len(inProg); x++ {
		for y := x + 1; y < len(inProg); y++ {
			r.setOverlap(inProg[x], inProg[y])
			r.setOverlap(inProg[y], inProg[x])
		}
	}
}

// setOverlap records canOverlap(e, f).
func (r *batchRun) setOverlap(e, f int32) {
	r.canOverlap[e][f/64] |= 1 << uint(f%64)
}

// foldSyncOverlap records that atomic event ev, firing from the state with
// program counters pc on a path to completion, overlaps every event in
// progress there (in-progress events belong to other processes by
// construction: a sync action is enabled only when it is its own process's
// next action). Like foldStateFacts it reads only pc, for the orbit
// walker's sake.
func (r *batchRun) foldSyncOverlap(pc []int32, ev int32) {
	for p := range pc {
		if f := r.inProgEvent[p][pc[p]]; f >= 0 {
			r.setOverlap(ev, f)
			r.setOverlap(f, ev)
		}
	}
}

// settleFacts completes the fact matrices before anything reads them.
// First the order accumulators: an event of process p whose end moves
// pc[p] to k is ended at every state with pc[p] ≥ k, so its canOrder row
// gains the union of orderAcc[p][j] over j ≥ k, one suffix OR per process.
// Then the seed's proven facts: a fact a sound seed decides is either in
// its lower bound or never derivable, so the union is exactly the
// unseeded exploration's matrices. Settling twice changes nothing.
func (r *batchRun) settleFacts() {
	a := r.a
	for p, ids := range a.procActs {
		acc := r.orderAcc[p]
		for k := len(ids) - 1; k >= 0; k-- {
			orWords(acc[k], acc[k+1])
		}
		for j, id := range ids {
			if act := &a.acts[id]; act.kind == actEnd || act.kind == actSync {
				orWords(r.canOrder[act.event], acc[j+1])
			}
		}
	}
	if r.seed == nil {
		return
	}
	restore := func(rel *model.Relation, facts [][]uint64) {
		if rel == nil {
			return
		}
		for e, row := range facts {
			orWords(row, rel.Row(model.EventID(e)).Words())
		}
	}
	restore(r.seed.Order, r.canOrder)
	restore(r.seed.Overlap, r.canOverlap)
}

// orWords sets dst to dst ∪ src, word by word.
func orWords(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// orbitWalker replays a canonical finished state's fact folds for every
// member of its orbit, keeping the symmetry-reduced run's matrices
// bit-identical to the unreduced engine's: the unreduced pass visits each
// member as a real state and folds there; the reduced pass visits only
// the representative, so the walker reconstructs the member
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

// checkpoint captures the interrupted run's knowledge: the finished
// states (every memo entry is final), the facts folded from them, and the
// budget counters. A cell run exports its states and folded signatures as
// the packed keys a hashed run would hold.
func (r *batchRun) checkpoint() *Checkpoint {
	c := &Checkpoint{
		Fingerprint: r.a.fingerprint(),
		Symm:        r.symm,
		Phase:       ckPhaseSearch,
		Expanded:    r.expanded,
		Edges:       r.edges,
		NumEvents:   len(r.a.x.Events),
		CanOrder:    flattenFacts(r.canOrder, r.factWords),
		CanOverlap:  flattenFacts(r.canOverlap, r.factWords),
	}
	if r.cells != nil {
		c.States, c.PcSeen = r.cells.export(r.a)
	} else {
		c.States, c.PcSeen = r.table.Export(), r.pcSeen.Export()
	}
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

// partialResult assembles the interrupted run's three-valued matrices:
// per kind, the pairs proven to hold and the pairs still open. A fact is
// proven true by a folded or seed-restored bit; only the seed can refute
// one before the exploration completes (absence of a witness is evidence
// only once every reachable completable state has been folded), so of the
// seed's bracket only the refuted side is read. Callers must have settled
// the facts first.
func (r *batchRun) partialResult(kinds []RelKind, seed *factRows, cause error) *MatrixResult {
	fr := factRows{
		n:     len(r.a.x.Events),
		order: r.canOrder, orderT: transposeInto(r.orderT, r.canOrder), overlap: r.canOverlap,
		noOrder: seed.noOrder, noOrderT: seed.noOrderT, noOverlap: seed.noOverlap,
	}
	rels, undecided := fr.relations(kinds, true)
	return &MatrixResult{
		Kinds:      append([]RelKind(nil), kinds...),
		Relations:  rels,
		Undecided:  undecided,
		Checkpoint: r.checkpoint(),
		Cause:      cause,
		Expanded:   r.expanded,
	}
}

// completeResult reads every verdict out of the finished exploration's
// fact matrices (two-valued: absence of a witness is now proof of
// absence).
func (r *batchRun) completeResult(kinds []RelKind) *MatrixResult {
	n := len(r.a.x.Events)
	fr := factRows{n: n, closed: true, order: r.canOrder, orderT: transposeInto(r.orderT, r.canOrder), overlap: r.canOverlap}
	rels, _ := fr.relations(kinds, false)
	return &MatrixResult{
		Complete:  true,
		Kinds:     append([]RelKind(nil), kinds...),
		Relations: rels,
		Expanded:  r.expanded,
	}
}

// handOverMemo installs the finished memo as the analyzer's persistent
// completion memo (batch keys use the canComplete discriminator byte), so
// per-pair queries issued after a Matrix call start with the whole
// reachable space memoized. The memo replaces the previous one instead of
// merging into it: it holds every reachable state under the run's keys,
// and those include every key a per-pair query memoizes (orbit-canonical
// keys when the analyzer reduces symmetry, raw keys otherwise). A cell
// memo stays in cells until the first per-pair query's completion search
// converts it, so the Matrix path never pays for the conversion.
func (r *batchRun) handOverMemo() {
	a := r.a
	if a.opts.DisableMemo {
		return
	}
	if r.cells != nil {
		a.cells = r.cells
		a.memoComplete.Reset()
		return
	}
	a.cells = nil
	a.memoComplete = r.table
}
