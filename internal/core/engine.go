// Package core implements the paper's primary contribution: exact decision
// procedures for the six event-ordering relations of Netzer & Miller —
// must-have / could-have happened-before (MHB, CHB), concurrent-with
// (MCW, CCW), and ordered-with (MOW, COW) — over the set of feasible
// program executions of an observed execution.
//
// A feasible program execution (paper conditions F1–F3) is modeled as a
// complete valid interleaving of atomic *actions* derived from the observed
// execution's events:
//
//   - a synchronization event contributes one atomic action (on a
//     sequentially consistent processor, P/V, Post/Wait/Clear and fork/join
//     take effect atomically);
//   - a computation event is non-atomic: it contributes a begin action, one
//     action per shared-variable access, and an end action, so it occupies
//     an interval and can overlap other events.
//
// A valid interleaving respects per-process program order, fork/join,
// semaphore safety (counters never negative; binary semaphores never exceed
// one), event-variable semantics (a Wait fires only while the variable is
// posted), and — unless Options.IgnoreData is set — the observed orientation
// of every conflicting shared-variable access pair (the paper's condition
// F3). Interleavings that cannot perform all events (deadlocks) are not
// feasible (condition F1).
//
// In a given interleaving, a T b ("a completes before b begins") iff a's
// end action precedes b's begin action, and a and b are concurrent iff
// neither holds. Each relation query is an existential (or negated-
// existential) property of this interleaving space, answered by memoized
// depth-first search whose state is (per-process action counters,
// event-variable values, interval-monitor flags). The search is exponential
// in the worst case — necessarily so: the paper proves the must-have
// relations co-NP-hard and the could-have relations NP-hard (Theorems 1–4).
// The hardness lives in the choices of which V or Post satisfies which P or
// Wait: a query the closure of the forced orderings refutes (must.go), and
// every query on an execution with no such choice left (certify.go), is
// answered without search.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"eventorder/internal/model"
	"eventorder/internal/statetab"
	"eventorder/internal/symm"
)

// ErrBudget is returned when a query exceeds Options.MaxNodes search nodes.
var ErrBudget = errors.New("core: search node budget exceeded")

// Options configures an Analyzer.
type Options struct {
	// IgnoreData drops the shared-data-dependence constraints (F3),
	// yielding the looser feasibility notion used by the related work the
	// paper discusses in Section 5.3 (all executions performing the same
	// events, regardless of the original dependences).
	IgnoreData bool
	// MaxNodes bounds the number of search nodes explored per query;
	// 0 means no bound. Queries exceeding the bound fail with ErrBudget.
	MaxNodes int64
	// DisableMemo turns off state memoization (plain depth-first search).
	// Exists only for the ablation benchmarks; always leave it off in real
	// use — without memoization the search revisits states and the running
	// time explodes even on easy inputs.
	DisableMemo bool
	// DisablePOR is ignored: the search explores every enabled action at
	// every node.
	//
	// Deprecated: sleep-set partial-order reduction was removed (the state
	// memo already dedupes the states it would have reached along commuted
	// paths, so it saved only edges and grew the per-pair search); the
	// field remains so existing callers compile.
	DisablePOR bool
	// DisableSymm turns off process-symmetry reduction, restoring raw
	// (non-canonicalized) state keys in the completion memo and the batch
	// pass. Verdicts and relation matrices are identical either way —
	// symmetry only collapses states that differ by a proven program
	// automorphism — so this is an escape hatch and a differential-testing
	// axis. Symmetry also disables itself automatically when no nontrivial
	// group is detected or on executions with more than 64 processes (the
	// batch engine's fold masks are process bitmasks).
	DisableSymm bool
}

// Stats reports search effort accumulated by an Analyzer, plus the
// occupancy of the persistent completion memo (the one table that lives as
// long as the analyzer — per-query monitor memos are created and dropped
// per query). The occupancy fields make memo-table pressure observable in
// production: the eventorderd service exports them on /metrics.
//
// After a complete Matrix pass over cells (a position-addressed memo, used
// when the pass is not symmetric and the product of the per-process
// position counts and 2^(event variables) is at most 2^20) the memo
// fields describe the cells until a per-pair query converts them:
// CompleteMemo counts the finished states, MemoBytes the cell array (two
// bits per cell) plus the fold bitset, MemoLoad is finished states per
// cell, and MemoGrows is 0.
type Stats struct {
	Nodes        int64   // search nodes expanded across all queries
	Edges        int64   // successor transitions explored
	MemoHits     int64   // memoized answers reused
	CompleteMemo int     // entries in the persistent completion memo
	MemoBytes    int64   // heap bytes held by the completion memo's arrays
	MemoLoad     float64 // completion memo load factor (entries/capacity)
	MemoGrows    int64   // capacity doublings since creation or DropMemo
	// SymmClasses is the number of interchangeable-process classes the
	// symmetry detector proved (0 when reduction is off, the group is
	// trivial, or no query has searched yet: the first search runs the
	// detector, and queries the closure answers never do); SymmCollapses
	// counts completion-memo probes whose key canonicalized to a
	// different orbit representative, so that the probe shared the
	// representative's entry. A Matrix probes once per
	// successor transition of each state it enters, a per-pair query once
	// per non-final state its completion search reaches.
	SymmClasses   int
	SymmCollapses int64
}

type actKind uint8

const (
	actBegin  actKind = iota // computation event begins
	actAccess                // shared-variable access (or nop step)
	actEnd                   // computation event ends
	actSync                  // atomic synchronization operation
)

// action is one atomic scheduling unit.
type action struct {
	kind    actKind
	opKind  model.OpKind // for actAccess/actSync; OpNop for begin/end
	op      int32        // op id for actAccess/actSync; -1 otherwise
	event   int32
	proc    int32
	idx     int32   // index within the process's action list
	obj     int32   // sem/ev/proc index for actSync; -1 otherwise
	prereqs []int32 // action ids that must execute first (data constraints)
}

// Analyzer holds the preprocessed execution and persistent memo tables.
// It is not safe for concurrent use.
type Analyzer struct {
	x    *model.Execution
	opts Options

	acts     []action
	procActs [][]int32 // per-proc action ids in program order

	// event interval markers: the action ids of each event's begin and end.
	evBeginAct []int32
	evEndAct   []int32

	// process tree
	parentOf   []int32 // parent proc or -1
	forkActIdx []int32 // index (within parent's action list) of the fork action, or -1

	// semaphores
	semNames  []string
	semInit   []int32
	semBinary []bool

	// event variables
	evNames []string
	evInit  []uint64 // packed initial bits

	// search state, reused across queries
	pc    []int32
	sem   []int32
	ev    []uint64
	stats Stats

	// memoComplete caches "a complete valid interleaving exists from this
	// state"; it is query-independent and persists across queries. Keys are
	// the packed state keys below. After a complete Matrix pass over cells,
	// cells holds the completion memo instead, until the first completion
	// search (canComplete) converts it into memoComplete.
	memoComplete *statetab.Table
	cells        *cellMemo
	// maxCells is the largest cell count a Matrix pass runs over cells:
	// cellLimit, which core's tests lower to run the hashed pass.
	maxCells int

	// Packed state keys: the search state (pc, ev, extra) bit-packed into
	// keyWords uint64 words — pcBits bits per program counter, one bit per
	// event variable, then the 8-bit extra discriminator. Semaphore
	// counters are a pure function of the program counters and are omitted.
	pcBits   uint // bits per program counter field
	evBits   int  // event-variable bits (== number of event variables)
	keyWords int  // uint64 words per packed key

	// Per-depth scratch arenas, indexed by recursion depth so a frame's key
	// and enabled list survive recursion into child frames (deriving the
	// key once per node) without any per-node allocation. Slot d of
	// keyArena is keyWords words; slot d of enabledArena is len(procActs)
	// int32s.
	keyArena     []uint64
	enabledArena []int32
	// walkEnabled is the enabled-action scratch of the non-recursive walk
	// loops (FindSchedule, completePath, sampleWalk), which probe
	// canComplete — and thus the arenas — while iterating it.
	walkEnabled []int32

	// ctx, when non-nil, is polled inside the search so an abandoned query
	// (canceled request, expired deadline) stops burning CPU. Set and
	// cleared by the *Ctx wrappers in ctx.go; nil means never cancel.
	ctx     context.Context
	ctxTick uint32 // node counter for amortized ctx polling

	// Process-symmetry reduction (symm.go), detected by the first search
	// (symmetry): symmDetected records that detection ran, and symm is
	// true when it proved a nontrivial process-permutation group that is
	// not disabled. The class tables are immutable and the scratch below
	// is reused by every search. symmRaw holds the raw packed key before
	// canonicalization.
	symmDetected bool
	symm         bool
	symmClasses  [][]int32 // interchangeable-process classes, ascending ids
	symmClassOf  []int32   // proc → class index, or -1 if fixed
	symmVals     []int32   // per-class pc values during canonicalization
	symmRaw      []uint64  // raw-key scratch (keyWords words)

	// Constraint predecessors (must.go), listed when the graph is first
	// closed: action x's are predList[predSpan[x].lo:predSpan[x].hi].
	predSpan []span
	predList []int32
	// reach is the constraint graph's closure over event endpoints
	// (closeGraph), computed on the first pair query, Excluded or
	// Certified call: action x's rows of the events whose begin and whose
	// end reach it, reachWords words each.
	reach      []uint64
	reachWords int
	// certified records the completeness certificate over reach
	// (certify.go), evaluated with the closure.
	certified bool
}

// New preprocesses x for relation queries. The execution must be
// structurally valid and carry an observed order (so that the data
// constraints are well defined).
func New(x *model.Execution, opts Options) (*Analyzer, error) {
	return newAnalyzer(x, opts, true)
}

// Schedule finds a complete valid interleaving for an execution built
// without an observed order (e.g. Builder.BuildDeferred output, or the
// paper's Post/Wait/Clear reduction programs, on which naive schedulers can
// deadlock) and installs it as x.Order. It fails if every interleaving
// deadlocks before performing all events.
func Schedule(x *model.Execution, opts Options) error {
	// Without an observed order there are no data constraints yet; the
	// schedule search runs with synchronization constraints only, and the
	// resulting order then defines the data dependences.
	a, err := newAnalyzer(x, Options{IgnoreData: true, MaxNodes: opts.MaxNodes}, false)
	if err != nil {
		return err
	}
	order, ok, err := a.FindSchedule()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("core: execution cannot complete (every interleaving deadlocks)")
	}
	x.Order = order
	return nil
}

// NewUnscheduled preprocesses an execution that has no observed order yet
// (e.g. to decide whether any complete interleaving exists at all). Data
// constraints are unavailable without an observed order, so the analyzer
// runs in IgnoreData mode.
func NewUnscheduled(x *model.Execution, opts Options) (*Analyzer, error) {
	return newAnalyzer(x, opts, false)
}

func newAnalyzer(x *model.Execution, opts Options, needOrder bool) (*Analyzer, error) {
	if needOrder {
		if err := model.Validate(x); err != nil {
			return nil, err
		}
	} else {
		if err := model.ValidateStructure(x); err != nil {
			return nil, err
		}
		opts.IgnoreData = true // no observed order → no data constraints yet
	}
	a := &Analyzer{x: x, opts: opts, maxCells: cellLimit}

	// Dense semaphore and event-variable indices.
	semIdx := map[string]int32{}
	for _, name := range x.SemNames() {
		decl := x.Sems[name]
		semIdx[name] = int32(len(a.semNames))
		a.semNames = append(a.semNames, name)
		a.semInit = append(a.semInit, int32(decl.Init))
		a.semBinary = append(a.semBinary, decl.Kind == model.SemBinary)
	}
	evIdx := map[string]int32{}
	evNames := make([]string, 0, len(x.EvInit))
	for name := range x.EvInit {
		evNames = append(evNames, name)
	}
	sort.Strings(evNames)
	for _, name := range evNames {
		evIdx[name] = int32(len(a.evNames))
		a.evNames = append(a.evNames, name)
	}
	a.evInit = make([]uint64, (len(a.evNames)+63)/64)
	for name, posted := range x.EvInit {
		if posted {
			i := evIdx[name]
			a.evInit[i/64] |= 1 << uint(i%64)
		}
	}

	procIdx := map[string]int32{}
	for p := range x.Procs {
		procIdx[x.Procs[p].Name] = int32(p)
	}

	// Build action lists per process. Ops of a computation event are
	// bracketed by begin/end actions; sync ops are single actions.
	a.evBeginAct = make([]int32, len(x.Events))
	a.evEndAct = make([]int32, len(x.Events))
	a.procActs = make([][]int32, len(x.Procs))
	opAct := make([]int32, len(x.Ops)) // op id → its access/sync action id
	emit := func(p int, act action) int32 {
		id := int32(len(a.acts))
		act.proc = int32(p)
		act.idx = int32(len(a.procActs[p]))
		a.acts = append(a.acts, act)
		a.procActs[p] = append(a.procActs[p], id)
		return id
	}
	for p := range x.Procs {
		proc := &x.Procs[p]
		i := 0
		for i < len(proc.Ops) {
			opID := proc.Ops[i]
			ev := x.Ops[opID].Event
			event := &x.Events[ev]
			if event.IsSync() {
				op := &x.Ops[opID]
				var obj int32 = -1
				switch op.Kind {
				case model.OpAcquire, model.OpRelease:
					obj = semIdx[op.Obj]
				case model.OpPost, model.OpWait, model.OpClear:
					obj = evIdx[op.Obj]
				case model.OpFork, model.OpJoin:
					obj = procIdx[op.Obj]
				}
				id := emit(p, action{kind: actSync, opKind: op.Kind, op: int32(opID), event: int32(ev), obj: obj})
				opAct[opID] = id
				a.evBeginAct[ev] = id
				a.evEndAct[ev] = id
				i++
				continue
			}
			// Computation event: begin, accesses, end.
			a.evBeginAct[ev] = emit(p, action{kind: actBegin, opKind: model.OpNop, op: -1, event: int32(ev), obj: -1})
			for _, aopID := range event.Ops {
				op := &x.Ops[aopID]
				id := emit(p, action{kind: actAccess, opKind: op.Kind, op: int32(aopID), event: int32(ev), obj: -1})
				opAct[aopID] = id
			}
			a.evEndAct[ev] = emit(p, action{kind: actEnd, opKind: model.OpNop, op: -1, event: int32(ev), obj: -1})
			i += len(event.Ops)
		}
		if len(a.procActs[p]) > 0x7ffe {
			return nil, fmt.Errorf("core: process %q has too many actions", proc.Name)
		}
	}

	// Process tree: a forked process may start once the fork action has
	// executed.
	a.parentOf = make([]int32, len(x.Procs))
	a.forkActIdx = make([]int32, len(x.Procs))
	for p := range x.Procs {
		proc := &x.Procs[p]
		a.parentOf[p] = int32(proc.Parent)
		a.forkActIdx[p] = -1
		if proc.ForkOp != model.OpID(model.NoID) {
			a.forkActIdx[p] = a.acts[opAct[proc.ForkOp]].idx
		}
	}

	// Data-dependence orientation constraints: conflicting access u must
	// execute before conflicting access v. Same-process constraints are
	// already implied by program order.
	for _, c := range model.OpConstraintsForExploration(x, opts.IgnoreData) {
		u, v := opAct[c[0]], opAct[c[1]]
		if a.acts[u].proc == a.acts[v].proc {
			continue
		}
		a.acts[v].prereqs = append(a.acts[v].prereqs, u)
	}

	a.pc = make([]int32, len(x.Procs))
	a.sem = make([]int32, len(a.semNames))
	a.ev = make([]uint64, len(a.evInit))

	// Packed-key geometry: one fixed width for every pc field (enough bits
	// for the longest process's final counter), the event-variable bits,
	// and the extra byte. Fixed widths make bit concatenation injective.
	maxActs := 0
	for p := range a.procActs {
		if len(a.procActs[p]) > maxActs {
			maxActs = len(a.procActs[p])
		}
	}
	a.pcBits = uint(bits.Len(uint(maxActs)))
	if a.pcBits == 0 {
		a.pcBits = 1
	}
	a.evBits = len(a.evNames)
	a.keyWords = (len(x.Procs)*int(a.pcBits) + a.evBits + 8 + 63) / 64
	a.allocScratch()
	a.memoComplete = statetab.New(a.keyWords, 0)
	return a, nil
}

// allocScratch sizes the per-depth arenas: recursion depth is bounded by
// the number of unexecuted actions, so len(acts)+2 slots always suffice.
func (a *Analyzer) allocScratch() {
	depths := len(a.acts) + 2
	a.keyArena = make([]uint64, depths*a.keyWords)
	a.enabledArena = make([]int32, depths*len(a.procActs))
	a.walkEnabled = make([]int32, 0, len(a.procActs))
}

// symmetry reports whether process-symmetry reduction is on. Its first
// call runs the detector and sizes the canonicalization scratch; every
// search entry point calls it before its first memo key is packed, so an
// analyzer whose queries the closure answers never pays for detection.
func (a *Analyzer) symmetry() bool {
	if a.symmDetected {
		return a.symm
	}
	a.symmDetected = true
	if a.opts.DisableSymm || len(a.procActs) < 2 || len(a.procActs) > 64 {
		return false
	}
	if g := symm.Detect(a.x, a.opts.IgnoreData); !g.Trivial() {
		a.symm = true
		a.symmClasses = g.Classes
		a.symmClassOf = g.ClassOf
		a.symmVals = make([]int32, len(a.procActs))
		a.symmRaw = make([]uint64, a.keyWords)
	}
	return a.symm
}

// keySlot returns depth's packed-key scratch slot.
func (a *Analyzer) keySlot(depth int) []uint64 {
	return a.keyArena[depth*a.keyWords : (depth+1)*a.keyWords]
}

// enabledSlot returns depth's empty enabled-action scratch slot (capacity
// one action per process; appendEnabled can never overflow it).
func (a *Analyzer) enabledSlot(depth int) []int32 {
	base := depth * len(a.procActs)
	return a.enabledArena[base : base : base+len(a.procActs)]
}

// Execution returns the execution under analysis.
func (a *Analyzer) Execution() *model.Execution { return a.x }

// NumActions returns the number of atomic actions in the interleaving space.
func (a *Analyzer) NumActions() int { return len(a.acts) }

// Stats returns cumulative search statistics, including the completion
// memo's current occupancy.
func (a *Analyzer) Stats() Stats {
	s := a.stats
	ts := a.memoComplete.Stats()
	if a.cells != nil {
		ts = a.cells.stats()
	}
	s.CompleteMemo = ts.Entries
	s.MemoBytes = ts.Bytes
	s.MemoLoad = ts.Load
	s.MemoGrows = ts.Grows
	s.SymmClasses = len(a.symmClasses)
	return s
}

// ResetStats zeroes the node and memo-hit counters (the persistent
// completion memo is kept).
func (a *Analyzer) ResetStats() { a.stats = Stats{} }

// DropMemo discards the persistent completion memo (used by benchmarks to
// measure cold-start cost).
func (a *Analyzer) DropMemo() {
	a.cells = nil
	a.memoComplete.Reset()
}

// resetState rewinds the mutable search state to the initial configuration.
func (a *Analyzer) resetState() {
	for i := range a.pc {
		a.pc[i] = 0
	}
	copy(a.sem, a.semInit)
	copy(a.ev, a.evInit)
}

// executedAct reports whether action id has executed in the current state.
func (a *Analyzer) executedAct(id int32) bool {
	act := &a.acts[id]
	return a.pc[act.proc] > act.idx
}

// procStarted reports whether process p's actions may run.
func (a *Analyzer) procStarted(p int32) bool {
	parent := a.parentOf[p]
	return parent < 0 || a.pc[parent] > a.forkActIdx[p]
}

// procFinished reports whether process p has started and completed.
func (a *Analyzer) procFinished(p int32) bool {
	return a.procStarted(p) && int(a.pc[p]) == len(a.procActs[p])
}

// enabledAct reports whether action id (the next action of its process) may
// execute in the current state.
func (a *Analyzer) enabledAct(id int32) bool {
	act := &a.acts[id]
	for _, u := range act.prereqs {
		if !a.executedAct(u) {
			return false
		}
	}
	if act.kind != actSync {
		return true
	}
	switch act.opKind {
	case model.OpAcquire:
		return a.sem[act.obj] > 0
	case model.OpRelease:
		return !a.semBinary[act.obj] || a.sem[act.obj] == 0
	case model.OpWait:
		return a.ev[act.obj/64]&(1<<uint(act.obj%64)) != 0
	case model.OpJoin:
		return a.procFinished(act.obj)
	}
	return true
}

// nextAct returns the next action id of process p, or -1 if p is finished
// or not yet started.
func (a *Analyzer) nextAct(p int) int32 {
	if int(a.pc[p]) >= len(a.procActs[p]) || !a.procStarted(int32(p)) {
		return -1
	}
	return a.procActs[p][a.pc[p]]
}

// appendEnabled collects the ids of all currently enabled actions.
func (a *Analyzer) appendEnabled(dst []int32) []int32 {
	for p := range a.procActs {
		id := a.nextAct(p)
		if id >= 0 && a.enabledAct(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// step executes action id, returning an undo token (the previous ev word
// for post/clear actions).
func (a *Analyzer) step(id int32) uint64 {
	act := &a.acts[id]
	var undo uint64
	if act.kind == actSync {
		switch act.opKind {
		case model.OpAcquire:
			a.sem[act.obj]--
		case model.OpRelease:
			a.sem[act.obj]++
		case model.OpPost:
			undo = a.ev[act.obj/64]
			a.ev[act.obj/64] |= 1 << uint(act.obj%64)
		case model.OpClear:
			undo = a.ev[act.obj/64]
			a.ev[act.obj/64] &^= 1 << uint(act.obj%64)
		}
	}
	a.pc[act.proc]++
	return undo
}

// unstep reverses step(id).
func (a *Analyzer) unstep(id int32, undo uint64) {
	act := &a.acts[id]
	a.pc[act.proc]--
	if act.kind == actSync {
		switch act.opKind {
		case model.OpAcquire:
			a.sem[act.obj]++
		case model.OpRelease:
			a.sem[act.obj]--
		case model.OpPost, model.OpClear:
			a.ev[act.obj/64] = undo
		}
	}
}

// allDone reports whether every action has executed.
func (a *Analyzer) allDone() bool {
	for p := range a.procActs {
		if int(a.pc[p]) != len(a.procActs[p]) {
			return false
		}
	}
	return true
}

// keyExtraComplete is the extra discriminator byte packed into completion-
// memo keys; the per-query monitor memos pack the interval-monitor flags
// (always < 0x04) there instead, so the two key families never collide.
const keyExtraComplete = 0xff

// packKey bit-packs the current state (pc, ev, extra) into dst, which must
// be exactly keyWords long. Fields are fixed-width (pcBits per counter,
// one bit per event variable, 8 extra bits), so the packing is injective.
// Semaphore counters are a pure function of the program counters and are
// omitted.
func (a *Analyzer) packKey(extra byte, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	bit := uint(0)
	pb := a.pcBits
	for _, c := range a.pc {
		w, off := bit>>6, bit&63
		dst[w] |= uint64(uint32(c)) << off
		if off+pb > 64 {
			dst[w+1] |= uint64(uint32(c)) >> (64 - off)
		}
		bit += pb
	}
	left := a.evBits
	for _, ew := range a.ev {
		nb := uint(64)
		if uint(left) < nb {
			nb = uint(left)
		}
		w, off := bit>>6, bit&63
		dst[w] |= ew << off
		if off+nb > 64 {
			dst[w+1] |= ew >> (64 - off)
		}
		bit += nb
		left -= int(nb)
	}
	w, off := bit>>6, bit&63
	dst[w] |= uint64(extra) << off
	if off+8 > 64 {
		dst[w+1] |= uint64(extra) >> (64 - off)
	}
}

// patchChildKey writes into dst the packed key of the state reached by
// executing action id from the state whose packed key is src, preserving
// the extra byte. It is equivalent to step(id) + packKey + unstep(id) but
// touches only the words holding the changed fields: the acting process's
// pc field is incremented with a wide add (the field cannot overflow —
// pcBits covers the maximal counter, so the carry never escapes it), and a
// post/clear flips its single event bit. Semaphore ops leave everything
// but the pc untouched because semaphore counters are derived state and
// not part of the key. src and dst must not overlap.
func (a *Analyzer) patchChildKey(id int32, src, dst []uint64) {
	copy(dst, src)
	act := &a.acts[id]
	bit := uint(act.proc) * a.pcBits
	w, off := bit>>6, bit&63
	old := dst[w]
	dst[w] = old + 1<<off
	if off+a.pcBits > 64 && dst[w] < old {
		dst[w+1]++
	}
	if act.kind == actSync {
		switch act.opKind {
		case model.OpPost:
			b := uint(len(a.pc))*a.pcBits + uint(act.obj)
			dst[b>>6] |= 1 << (b & 63)
		case model.OpClear:
			b := uint(len(a.pc))*a.pcBits + uint(act.obj)
			dst[b>>6] &^= 1 << (b & 63)
		}
	}
}

// readBits extracts width bits (1..64) starting at bit offset bit from the
// packed key.
func readBits(key []uint64, bit, width uint) uint64 {
	w, off := bit>>6, bit&63
	v := key[w] >> off
	if off+width > 64 {
		v |= key[w+1] << (64 - off)
	}
	if width == 64 {
		return v
	}
	return v & (1<<width - 1)
}

// unpackKey loads the pc and ev fields of a packed key into the analyzer's
// mutable state (the inverse of packKey; the extra byte is ignored).
// Semaphore counters are NOT restored: they are derived state, a pure
// function of the program counters.
func (a *Analyzer) unpackKey(key []uint64) {
	bit := uint(0)
	for p := range a.pc {
		a.pc[p] = int32(readBits(key, bit, a.pcBits))
		bit += a.pcBits
	}
	left := a.evBits
	for i := range a.ev {
		nb := uint(64)
		if uint(left) < nb {
			nb = uint(left)
		}
		a.ev[i] = readBits(key, bit, nb)
		bit += nb
		left -= int(nb)
	}
}

// ctxPollInterval is how many search nodes pass between cancellation
// checks. Nodes cost well under a microsecond, so polling every 256 keeps
// cancellation latency far below a millisecond without measurable overhead.
const ctxPollInterval = 256

// budgetCharge counts one search node against the per-query budget and,
// when a context is installed, polls it for cancellation.
func (a *Analyzer) budgetCharge(remaining *int64) error {
	a.stats.Nodes++
	if a.ctx != nil {
		a.ctxTick++
		if a.ctxTick%ctxPollInterval == 0 {
			if err := a.ctx.Err(); err != nil {
				return err
			}
		}
	}
	if a.opts.MaxNodes > 0 {
		*remaining--
		if *remaining < 0 {
			return ErrBudget
		}
	}
	return nil
}

// canComplete reports whether some complete valid interleaving exists from
// the current state. Answers are memoized persistently across queries.
// depth indexes the per-depth scratch arenas; callers at a fresh search
// root pass 0, recursive callers their own depth+1. The node's key is
// derived exactly once — recursion only touches deeper arena slots, so the
// slot survives for the memo store — and neither the key nor the enabled
// list allocates.
func (a *Analyzer) canComplete(budget *int64, depth int) (bool, error) {
	if a.allDone() {
		return true, nil
	}
	var key []uint64
	if !a.opts.DisableMemo {
		if a.cells != nil {
			// The first completion search after a Matrix pass over cells
			// converts them into the table it memoizes in.
			a.memoComplete, a.cells = a.cells.table(a), nil
		}
		key = a.keySlot(depth)
		if a.symm {
			// Memoize under the orbit-canonical key: completability is
			// invariant under program automorphisms, so every orbit member
			// shares one entry.
			a.packKey(keyExtraComplete, a.symmRaw)
			if a.canonicalizeKey(a.symmRaw, key) {
				a.stats.SymmCollapses++
			}
		} else {
			a.packKey(keyExtraComplete, key)
		}
		if v, ok := a.memoComplete.Lookup(key); ok {
			a.stats.MemoHits++
			return v, nil
		}
	}
	if err := a.budgetCharge(budget); err != nil {
		return false, err
	}
	result := false
	for _, id := range a.appendEnabled(a.enabledSlot(depth)) {
		a.stats.Edges++
		undo := a.step(id)
		ok, err := a.canComplete(budget, depth+1)
		a.unstep(id, undo)
		if err != nil {
			return false, err
		}
		if ok {
			result = true
			break
		}
	}
	if !a.opts.DisableMemo {
		a.memoComplete.Store(key, result)
	}
	return result, nil
}
