// Package plan implements the tiered relation planner: a cascade of
// polynomial pre-solvers that bracket the (co-)NP-hard exact relation
// queries before the exponential engine runs.
//
// The paper proves the six must/could relations intractable, and the
// related-work baselines the repository implements — static program
// order, vector clocks, the HMW safe orderings — are polynomial but
// incomplete. The planner turns that incompleteness into a bracket: each
// tier contributes facts it can PROVE about the batch engine's two
// primitive quantities, canOrder(a, b) ("some feasible complete
// interleaving runs a wholly before b") and canOverlap(a, b) ("some
// feasible complete interleaving overlaps the two"):
//
//   - Tier 0 "static": model.ProgramOrder (program order plus fork/join,
//     closed) and — on semaphore-only traces — the HMW phase-3 safe
//     orderings. Each pair these order is wholly ordered in EVERY
//     feasible interleaving, so PO/HMW(a, b) proves canOrder(a, b) true
//     (at least one feasible interleaving exists: the observed one),
//     canOrder(b, a) false, and canOverlap false both ways. Both
//     analyses are safe under either feasibility notion: adding the
//     shared-data constraints (F3) only shrinks the feasible set, which
//     can only grow the set of pairs ordered in every member.
//
//   - Tier 1 "observed": the observed interleaving is itself feasible
//     under both notions, so it is a one-interleaving witness: observed
//     a-wholly-before-b proves canOrder(a, b) true, and an observed
//     overlap proves canOverlap true. (Existence witnesses only — other
//     interleavings may order the pair differently, so no upper bounds
//     come from this tier.) The classical vector-clock relation is
//     computed for its stats and cross-checked here, but contributes no
//     facts of its own: every vclock edge follows the observed pairing,
//     so vclock-HB is a sub-relation of the observed ordering — the tier
//     verifies that inclusion and fails loudly if a trace violates it.
//
//   - Tier 2 "dag": a must-precede DAG over event interval ENDPOINTS
//     (each event contributes a begin node and an end node) — per-
//     process program order, fork/join edges, the observed shared-data
//     orientation constraints (F3, dropped under IgnoreData; a conflict
//     u ∈ a before v ∈ b orders only the two accesses, so it yields the
//     weak edge begin(a) → end(b)), and the event-level must-orderings
//     tier 0 established (end(a) → begin(b)). Every edge holds in every
//     feasible interleaving and is consistent with the observed order,
//     so the graph is acyclic and reachability is transitively sound:
//     end(a) →* begin(b) proves a wholly precedes b always (the tier-0
//     fact pattern, now reachable through mixed data/sync chains), while
//     the co-reachability begin(b) →* end(a) proves a can NEVER wholly
//     precede b — canOrder(a, b) false — even for pairs no must-ordering
//     relates.
//
// The bracket gap — verdicts the facts leave open — is the residue the
// exact core.Matrix engine still decides; the seed rides in through
// core.MatrixOpts.Seed, so the engine skips the exploration entirely when
// nothing is left and an interrupted run keeps the seed's verdicts. Soundness
// of every tier is what makes the combination bit-identical to an
// exact-only run; internal/oracle differential-tests exactly that.
package plan

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"eventorder/internal/core"
	"eventorder/internal/dag"
	"eventorder/internal/hmw"
	"eventorder/internal/model"
	"eventorder/internal/vclock"
)

// Tier identifies one stage of the planning cascade.
type Tier int8

const (
	// TierStatic is tier 0: program order, fork/join, and HMW safe
	// orderings — pairs ordered in every feasible interleaving.
	TierStatic Tier = iota
	// TierObserved is tier 1: the observed interleaving as an existence
	// witness for orderings and overlaps it exhibits.
	TierObserved
	// TierDAG is tier 2: must-precede DAG reachability and
	// co-reachability over the sync skeleton and data constraints.
	TierDAG
	// TierExact marks the residue: pairs only the exponential engine
	// decides.
	TierExact
)

// NumPolyTiers is the number of polynomial tiers in the cascade.
const NumPolyTiers = int(TierExact)

// Compile-time assertion that the cascade depth matches the clamp bound
// core.MatrixOpts.Normalize applies to the Tiers knob (a negative operand
// would fail the uint conversions).
const _ = uint(core.MaxPlanTiers-NumPolyTiers) + uint(NumPolyTiers-core.MaxPlanTiers)

var tierNames = [...]string{"static", "observed", "dag", "exact"}

func (t Tier) String() string {
	if t >= 0 && int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// Options configures Build and Analyze.
type Options struct {
	// IgnoreData drops the shared-data-dependence constraints (the
	// Section 5.3 feasibility notion) from the tier-2 must-DAG, matching
	// what the exact engine it brackets would assume. Tiers 0 and 1 are
	// sound under both notions unchanged.
	IgnoreData bool
	// Tiers caps the cascade: 0 (the default) runs every polynomial
	// tier, 1..3 run only tiers 0..Tiers-1, and a negative value disables
	// the planner — the plan is empty and every pair is residue.
	Tiers int
}

// maxTier resolves the Tiers knob to the number of tiers to run.
func (o Options) maxTier() int {
	switch {
	case o.Tiers < 0:
		return 0
	case o.Tiers == 0 || o.Tiers > NumPolyTiers:
		return NumPolyTiers
	}
	return o.Tiers
}

// TierStats reports one executed tier's effort and yield.
type TierStats struct {
	// Tier identifies the tier.
	Tier Tier
	// PairsDecided is the number of ordered event pairs whose every
	// requested verdict first became derivable at this tier (cumulative
	// attribution: a pair needing facts from tiers 0 and 2 counts for
	// tier 2).
	PairsDecided int
	// FactsDecided is the number of primitive canOrder/canOverlap facts
	// this tier newly proved or refuted.
	FactsDecided int
	// EventsScanned is the number of events the tier's analyses ranged
	// over.
	EventsScanned int
	// Rounds is the number of fixpoint/replay rounds the tier's
	// underlying analyses used (HMW's fixpoint for tier 0, the vclock
	// replay for tier 1).
	Rounds int
	// OrderedPairs is the ordered-pair count of the tier's underlying
	// polynomial relation (PO ∪ HMW for tier 0, the observed ordering
	// for tier 1, the must-DAG's event-level closure for tier 2).
	OrderedPairs int
}

// Plan is the result of the polynomial cascade: a fact bracket for the
// exact engine plus per-pair provenance and per-tier stats.
type Plan struct {
	// Kinds echoes the relation kinds the plan was built for.
	Kinds []core.RelKind
	// Seed is the fact bracket, ready for core.MatrixOpts.Seed.
	Seed *core.FactSeed
	// Tiers holds one entry per executed polynomial tier, in cascade
	// order (empty when the planner was disabled).
	Tiers []TierStats
	// TotalPairs is the number of ordered event pairs, n·(n−1).
	TotalPairs int
	// Residue is the number of pairs left to the exact engine.
	Residue int

	prov [][]Tier
}

// DecidedTier returns the tier whose facts first decided every requested
// verdict for the ordered pair (a, b), or TierExact when the pair is
// residue. a and b must be distinct.
func (p *Plan) DecidedTier(a, b model.EventID) Tier { return p.prov[a][b] }

// DecidedByTier returns the number of pairs attributed to tier t
// (TierExact returns the residue).
func (p *Plan) DecidedByTier(t Tier) int {
	if t == TierExact {
		return p.Residue
	}
	for _, st := range p.Tiers {
		if st.Tier == t {
			return st.PairsDecided
		}
	}
	return 0
}

// TierFraction returns DecidedByTier(t) as a fraction of all pairs
// (0 when the execution has fewer than two events).
func (p *Plan) TierFraction(t Tier) float64 {
	if p.TotalPairs == 0 {
		return 0
	}
	return float64(p.DecidedByTier(t)) / float64(p.TotalPairs)
}

// PolyFraction returns the fraction of pairs decided by any polynomial
// tier.
func (p *Plan) PolyFraction() float64 {
	if p.TotalPairs == 0 {
		return 0
	}
	return float64(p.TotalPairs-p.Residue) / float64(p.TotalPairs)
}

// Build runs the polynomial cascade over x for the requested kinds (nil
// or empty = all six) and returns the resulting plan. Build never runs
// the exponential engine; Analyze composes the two.
func Build(x *model.Execution, kinds []core.RelKind, opts Options) (*Plan, error) {
	if err := model.Validate(x); err != nil {
		return nil, err
	}
	if len(kinds) == 0 {
		kinds = core.AllRelKinds
	}
	n := x.NumEvents()
	p := &Plan{
		Kinds:      append([]core.RelKind(nil), kinds...),
		TotalPairs: n * (n - 1),
		Seed: &core.FactSeed{
			Order:     model.NewRelation("seedOrder", n),
			NoOrder:   model.NewRelation("seedNoOrder", n),
			Overlap:   model.NewRelation("seedOverlap", n),
			NoOverlap: model.NewRelation("seedNoOverlap", n),
		},
	}
	p.prov = make([][]Tier, n)
	for i := range p.prov {
		p.prov[i] = make([]Tier, n)
		for j := range p.prov[i] {
			p.prov[i][j] = TierExact
		}
	}

	b := &builder{x: x, p: p, must: model.NewRelation("must", n)}
	for t := 0; t < opts.maxTier(); t++ {
		var st TierStats
		var err error
		switch Tier(t) {
		case TierStatic:
			st, err = b.tierStatic()
		case TierObserved:
			st, err = b.tierObserved()
		case TierDAG:
			st, err = b.tierDAG(opts.IgnoreData)
		}
		if err != nil {
			return nil, err
		}
		if err := p.Seed.Validate(n); err != nil {
			return nil, fmt.Errorf("plan: tier %s produced an inconsistent bracket: %w", Tier(t), err)
		}
		st.Tier = Tier(t)
		st.PairsDecided = b.markDecided(Tier(t))
		p.Tiers = append(p.Tiers, st)
	}
	p.Residue = p.TotalPairs
	for _, st := range p.Tiers {
		p.Residue -= st.PairsDecided
	}
	return p, nil
}

// builder carries the cascade's working state.
type builder struct {
	x *model.Execution
	p *Plan
	// must accumulates event pairs proven wholly ordered in every
	// feasible interleaving (tier 0's yield); tier 2 folds them into its
	// DAG as edges.
	must *model.Relation
}

// recordMust registers "a wholly precedes b in every feasible
// interleaving": canOrder(a, b) true (witnessed by any feasible
// interleaving, e.g. the observed one), canOrder(b, a) false, and
// canOverlap false both ways. Returns the number of facts newly decided.
func (b *builder) recordMust(a, eb model.EventID) int {
	s := b.p.Seed
	fresh := 0
	set := func(r *model.Relation, u, v model.EventID) {
		if !r.Has(u, v) {
			r.Set(u, v)
			fresh++
		}
	}
	set(s.Order, a, eb)
	set(s.NoOrder, eb, a)
	set(s.NoOverlap, a, eb)
	set(s.NoOverlap, eb, a)
	b.must.Set(a, eb)
	return fresh
}

// markDecided assigns provenance t to every still-open pair whose
// requested verdicts the current bracket now all decides, returning how
// many pairs it marked.
func (b *builder) markDecided(t Tier) int {
	marked := 0
	b.p.Seed.EachDecided(b.p.Kinds, b.x.NumEvents(), func(a model.EventID, decided []uint64) {
		prov := b.p.prov[a]
		for w, x := range decided {
			for ; x != 0; x &= x - 1 {
				if j := w*64 + bits.TrailingZeros64(x); prov[j] == TierExact {
					prov[j] = t
					marked++
				}
			}
		}
	})
	return marked
}

// tierStatic derives the every-interleaving orderings that need no look
// at the observed schedule beyond its structure: program order with
// fork/join, and — when the trace is semaphore-only — the HMW phase-3
// safe orderings (a strict superset of program order when applicable).
func (b *builder) tierStatic() (TierStats, error) {
	guaranteed := model.ProgramOrder(b.x)
	rounds := 0
	if res, err := hmw.Analyze(b.x); err == nil {
		// HMW starts from program order, so phase 3 subsumes it.
		guaranteed = res.Phase3
		rounds = res.Stats().Rounds
	}
	// err != nil means the trace uses event variables; HMW does not
	// apply and program order alone carries the tier.
	facts := 0
	for _, pr := range guaranteed.Pairs() {
		facts += b.recordMust(pr[0], pr[1])
	}
	return TierStats{
		EventsScanned: b.x.NumEvents(),
		Rounds:        rounds,
		OrderedPairs:  guaranteed.Count(),
		FactsDecided:  facts,
	}, nil
}

// tierObserved mines the observed interleaving — a feasible interleaving
// under both feasibility notions — for existence witnesses, and
// cross-checks the vector-clock relation against it.
func (b *builder) tierObserved() (TierStats, error) {
	vres, err := vclock.Compute(b.x)
	if err != nil {
		return TierStats{}, fmt.Errorf("plan: vclock cross-check: %w", err)
	}
	obs := model.ObservedBefore(b.x, nil)
	// Every vclock edge follows program order or an observed pairing, so
	// HB must be a sub-relation of the observed wholly-before ordering.
	// A violation means the trace (or one of the analyses) is corrupt —
	// refuse to plan rather than seed an unsound fact.
	if !vres.HB.SubsetOf(obs) {
		return TierStats{}, fmt.Errorf("plan: vclock happened-before is not contained in the observed ordering (corrupt trace?)")
	}
	s := b.p.Seed
	facts := 0
	n := b.x.NumEvents()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a, eb := model.EventID(i), model.EventID(j)
			switch {
			case obs.Has(a, eb):
				if !s.Order.Has(a, eb) {
					s.Order.Set(a, eb)
					facts++
				}
			case !obs.Has(eb, a):
				// Neither direction wholly ordered: the observed
				// interleaving overlapped the two.
				if !s.Overlap.Has(a, eb) {
					s.Overlap.Set(a, eb)
					facts++
				}
			}
		}
	}
	vst := vres.Stats()
	return TierStats{
		EventsScanned: vst.EventsScanned,
		Rounds:        vst.Rounds,
		OrderedPairs:  obs.Count(),
		FactsDecided:  facts,
	}, nil
}

// tierDAG builds a must-precede DAG over event INTERVAL ENDPOINTS — two
// nodes per event, its begin and its end — and harvests reachability
// (end(a) →* begin(b): a wholly precedes b in every feasible
// interleaving, the tier-0 fact pattern now reachable through mixed
// data/sync chains) and co-reachability (begin(b) →* end(a): b always
// begins before a ends, so a can NEVER be wholly before b — an upper
// bound no other tier produces).
//
// Endpoint granularity matters. The exact engine models a computation
// event as begin/accesses/end actions, and a data-conflict constraint
// orders only the two ACCESS actions: u ∈ a before v ∈ b pins
// begin(a) < u < v < end(b) and nothing tighter, so the only sound
// event-level edge a conflict contributes is begin(a) → end(b). An
// op-level DAG chaining conflicts into whole-event orderings would
// over-claim — the intervals can still overlap around the two ordered
// accesses.
func (b *builder) tierDAG(ignoreData bool) (TierStats, error) {
	x := b.x
	n := x.NumEvents()
	begin := func(e model.EventID) int { return 2 * int(e) }
	end := func(e model.EventID) int { return 2*int(e) + 1 }
	g := dag.New(2 * n)
	// Interval edges: every event begins before it ends. (Sync events are
	// atomic — begin and end coincide — but a zero-duration interval only
	// weakens claims, never strengthens them.)
	for e := 0; e < n; e++ {
		g.AddEdge(begin(model.EventID(e)), end(model.EventID(e)))
	}
	// Program order: consecutive events of one process, plus fork/join.
	for pi := range x.Procs {
		proc := &x.Procs[pi]
		prev := model.EventID(model.NoID)
		for _, opID := range proc.Ops {
			ev := x.Ops[opID].Event
			if prev != model.EventID(model.NoID) && prev != ev {
				g.AddEdge(end(prev), begin(ev))
			}
			prev = ev
		}
		if proc.ForkOp != model.OpID(model.NoID) && len(proc.Ops) > 0 {
			g.AddEdge(end(x.Ops[proc.ForkOp].Event), begin(x.Ops[proc.Ops[0]].Event))
		}
	}
	for i := range x.Ops {
		op := &x.Ops[i]
		if op.Kind != model.OpJoin {
			continue
		}
		if child, ok := x.ProcByName(op.Obj); ok && len(child.Ops) > 0 {
			g.AddEdge(end(x.Ops[child.Ops[len(child.Ops)-1]].Event), begin(op.Event))
		}
	}
	// Event-variable sole-post edges: a Wait on a variable that starts
	// clear, is never cleared, and is posted exactly once can only fire
	// after that one post, in every feasible interleaving. (With several
	// posts, or any Clear, another interleaving may satisfy the wait
	// differently — no must-edge.)
	posts := map[string][]model.EventID{}
	waits := map[string][]model.EventID{}
	cleared := map[string]bool{}
	for e := range x.Events {
		ev := &x.Events[e]
		switch ev.Kind {
		case model.OpPost:
			posts[ev.Obj] = append(posts[ev.Obj], model.EventID(e))
		case model.OpWait:
			waits[ev.Obj] = append(waits[ev.Obj], model.EventID(e))
		case model.OpClear:
			cleared[ev.Obj] = true
		}
	}
	for v, ws := range waits {
		if x.EvInit[v] || cleared[v] || len(posts[v]) != 1 {
			continue
		}
		for _, w := range ws {
			g.AddEdge(end(posts[v][0]), begin(w))
		}
	}
	// Data conflicts: the weak interval edge only (see above).
	if !ignoreData {
		for _, c := range model.ConflictPairs(x) {
			g.AddEdge(begin(x.Ops[c[0]].Event), end(x.Ops[c[1]].Event))
		}
	}
	// Event-level must-orderings tier 0 proved: end before begin, by
	// definition of wholly-before.
	for _, pr := range b.must.Pairs() {
		g.AddEdge(end(pr[0]), begin(pr[1]))
	}
	clo, ok := g.TransitiveClosure()
	if !ok {
		// Every edge respects the observed interleaving, so a cycle can
		// only mean a corrupt trace or an unsound earlier tier.
		return TierStats{}, fmt.Errorf("plan: must-precede DAG is cyclic (corrupt trace?)")
	}
	s := b.p.Seed
	facts := 0
	mustPairs := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a, eb := model.EventID(i), model.EventID(j)
			switch {
			case clo.Reachable(end(a), begin(eb)):
				mustPairs++
				facts += b.recordMust(a, eb)
			case clo.Reachable(begin(eb), end(a)):
				// b begins before a ends in every feasible interleaving,
				// so a is never wholly before b.
				if !s.NoOrder.Has(a, eb) {
					s.NoOrder.Set(a, eb)
					facts++
				}
			}
		}
	}
	return TierStats{
		EventsScanned: n,
		Rounds:        1,
		OrderedPairs:  mustPairs,
		FactsDecided:  facts,
	}, nil
}

// Result carries one planned analysis: the (possibly partial) matrix
// result, the plan that bracketed it, and the exact engine's effort on
// the residue. Relations aliases Matrix.Relations for convenience.
type Result struct {
	Relations map[core.RelKind]*model.Relation
	Matrix    *core.MatrixResult
	Plan      *Plan
	Stats     core.Stats
}

// Analyze runs the full tiered pipeline: Build the plan (the cascade
// prefix mopts.Tiers selects; negative disables it), then hand its seed
// to the exact batch engine for the residue. Complete verdicts are
// bit-identical to an unplanned core.Matrix run; only the work differs.
// The tiers and the engine share copts.IgnoreData as their one
// feasibility notion.
//
// When mopts.Resume carries a checkpoint the planning cascade is skipped
// entirely — the original run's seed travels inside the checkpoint, so
// re-planning would be wasted work — and Result.Plan is nil. A resumed
// analysis that is interrupted again returns a partial Result.Matrix
// exactly like a first run would.
func Analyze(ctx context.Context, x *model.Execution, kinds []core.RelKind, copts core.Options, mopts core.MatrixOpts) (*Result, error) {
	if len(kinds) == 0 {
		kinds = core.AllRelKinds
	}
	var p *Plan
	if mopts.Resume == nil {
		start := time.Now()
		var err error
		p, err = Build(x, kinds, Options{IgnoreData: copts.IgnoreData, Tiers: mopts.Tiers})
		if err != nil {
			return nil, err
		}
		if mopts.OnPhase != nil {
			mopts.OnPhase("plan", time.Since(start))
		}
	}
	return AnalyzePlanned(ctx, x, kinds, copts, mopts, p)
}

// AnalyzePlanned is Analyze for callers that already Built the plan (or
// deliberately hold none): it seeds the exact batch engine with p's fact
// bracket (when p is non-nil and mopts.Tiers is non-negative) and settles
// the residue. The split exists for admission control: a front end can
// Build the polynomial plan cheaply on the request path, use its residue
// as a cost estimate to pick a lane, and hand the finished plan to a
// worker without re-running the cascade. p must have been Built for the
// same execution, kinds, and IgnoreData setting; mopts.Resume requires a
// nil p (the checkpoint carries the original seed).
func AnalyzePlanned(ctx context.Context, x *model.Execution, kinds []core.RelKind, copts core.Options, mopts core.MatrixOpts, p *Plan) (*Result, error) {
	if len(kinds) == 0 {
		kinds = core.AllRelKinds
	}
	if p != nil && mopts.Resume != nil {
		return nil, fmt.Errorf("plan: AnalyzePlanned with both a plan and a resume checkpoint (the seed travels inside the checkpoint)")
	}
	an, err := core.New(x, copts)
	if err != nil {
		return nil, err
	}
	if p != nil && mopts.Tiers >= 0 {
		mopts.Seed = p.Seed
	}
	res, err := an.Matrix(ctx, kinds, mopts)
	if err != nil {
		return nil, err
	}
	return &Result{Relations: res.Relations, Matrix: res, Plan: p, Stats: an.Stats()}, nil
}
