// Package plan implements the tiered relation planner: polynomial tiers
// that bracket the (co-)NP-hard exact relation queries before the
// exponential engine runs.
//
// The paper proves the six must/could relations intractable, and only
// because of choices: which V or Post satisfies which P or Wait. An
// ordering forced without a choice is reachability over core's constraint
// graph — program order, fork/join, the observed shared-data dependences
// (F3, dropped under IgnoreData) and the supply edges that semaphore and
// event-variable counting force — which core.Analyzer.Excluded reads as the
// outcomes (a T b, b T a, overlap) the graph rules out for a pair. The
// observed interleaving, feasible under both feasibility notions, is a
// witness for the outcome it exhibits. The planner turns both into facts
// about the batch engine's two primitive quantities, canOrder(a, b) ("some
// feasible complete interleaving runs a wholly before b") and
// canOverlap(a, b) ("some feasible complete interleaving overlaps the
// two"):
//
//   - Tier 0 "static": the pairs whose only outcome the graph leaves is
//     a T b. Such a pair is wholly ordered in every feasible interleaving,
//     and one exists (the observed one), so the tier proves canOrder(a, b)
//     true, canOrder(b, a) false, and canOverlap false both ways.
//
//   - Tier 1 "observed": an observed a-wholly-before-b proves
//     canOrder(a, b) true, and an observed overlap proves canOverlap true.
//     (Existence witnesses only — other interleavings may order the pair
//     differently, so no upper bounds come from this tier.)
//
//   - Tier 2 "dag": every other exclusion the graph proves: a T b ruled
//     out refutes canOrder(a, b), and overlap ruled out refutes canOverlap
//     both ways, even for pairs no must-ordering relates.
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
	"eventorder/internal/model"
)

// Tier identifies one stage of the planning cascade.
type Tier int8

const (
	// TierStatic is tier 0: the pairs the constraint graph orders in
	// every feasible interleaving.
	TierStatic Tier = iota
	// TierObserved is tier 1: the observed interleaving as an existence
	// witness for orderings and overlaps it exhibits.
	TierObserved
	// TierDAG is tier 2: every other outcome the constraint graph rules
	// out.
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
	// Section 5.3 feasibility notion) from the constraint graph, matching
	// what the exact engine it brackets would assume. Tier 1 is sound under
	// both notions unchanged.
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
	// EventsScanned is the number of events the tier ranged over.
	EventsScanned int
	// Rounds is the number of passes the tier made: 1, since every tier
	// reads the graph's closure or the observed order once.
	Rounds int
	// OrderedPairs is the ordered-pair count of the tier's underlying
	// polynomial relation: for tier 0 the pairs the graph orders in every
	// feasible interleaving, for tier 1 the observed ordering, and for
	// tier 2 the pairs the graph rules some outcome out for.
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

	// prov holds each ordered pair's DecidedTier, row-major over n events.
	prov []Tier
	n    int
}

// DecidedTier returns the tier whose facts first decided every requested
// verdict for the ordered pair (a, b), or TierExact when the pair is
// residue. a and b must be distinct.
func (p *Plan) DecidedTier(a, b model.EventID) Tier { return p.prov[int(a)*p.n+int(b)] }

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
// the exponential engine; Analyze composes the two. It builds an analyzer
// for the cascade (BuildFrom), with symmetry detection off since the plan
// reads no search state.
func Build(x *model.Execution, kinds []core.RelKind, opts Options) (*Plan, error) {
	an, err := core.New(x, core.Options{IgnoreData: opts.IgnoreData, DisableSymm: true})
	if err != nil {
		return nil, err
	}
	return BuildFrom(an, kinds, opts.Tiers)
}

// BuildFrom runs the cascade over an's execution and constraint graph,
// under an's feasibility notion, with tiers capping it as Options.Tiers
// does. It reads only the graph, so the analyzer then serves the exact
// engine for the residue unchanged (AnalyzePlanned).
func BuildFrom(an *core.Analyzer, kinds []core.RelKind, tiers int) (*Plan, error) {
	x := an.Execution()
	n := x.NumEvents()
	maxTier := Options{Tiers: tiers}.maxTier()
	if len(kinds) == 0 {
		kinds = core.AllRelKinds
	}
	p := &Plan{
		Kinds:      append([]core.RelKind(nil), kinds...),
		TotalPairs: n * (n - 1),
		Residue:    n * (n - 1),
		Tiers:      make([]TierStats, 0, maxTier),
		prov:       make([]Tier, n*n),
		n:          n,
	}
	for i := range p.prov {
		p.prov[i] = TierExact
	}
	if maxTier == 0 {
		p.Seed = &core.FactSeed{}
		return p, nil
	}
	b := &builder{x: x, an: an, p: p, sb: core.NewSeedBuilder(n)}
	p.Seed = b.sb.Seed()
	for t := 0; t < maxTier; t++ {
		var st TierStats
		switch Tier(t) {
		case TierStatic:
			st = b.tierStatic()
		case TierObserved:
			st = b.tierObserved()
		case TierDAG:
			st = b.tierDAG()
		}
		if err := p.Seed.Validate(n); err != nil {
			return nil, fmt.Errorf("plan: tier %s produced an inconsistent bracket: %w", Tier(t), err)
		}
		st.Tier = Tier(t)
		st.EventsScanned = n
		st.Rounds = 1
		st.PairsDecided = b.markDecided(Tier(t))
		p.Residue -= st.PairsDecided
		p.Tiers = append(p.Tiers, st)
	}
	return p, nil
}

// builder carries the cascade's working state.
type builder struct {
	x  *model.Execution
	an *core.Analyzer
	p  *Plan
	sb *core.SeedBuilder
}

// markDecided assigns provenance t to every pair whose requested verdicts
// the bracket so far decides and the earlier tiers' did not, returning
// how many pairs it marked.
func (b *builder) markDecided(t Tier) int {
	marked := 0
	n := b.p.n
	b.sb.NewlyDecided(b.p.Kinds, func(a model.EventID, decided []uint64) {
		prov := b.p.prov[int(a)*n : (int(a)+1)*n]
		for w, d := range decided {
			for ; d != 0; d &= d - 1 {
				prov[w*64+bits.TrailingZeros64(d)] = t
				marked++
			}
		}
	})
	return marked
}

// tierStatic records the pairs whose only outcome the graph leaves is
// a T b: canOrder(a, b) true (witnessed by any feasible interleaving, e.g.
// the observed one), canOrder(b, a) false, and canOverlap false both ways.
func (b *builder) tierStatic() TierStats {
	s := b.sb
	var st TierStats
	n := b.x.NumEvents()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a, eb := model.EventID(i), model.EventID(j)
			if b.an.Excluded(a, eb) != core.OutcomeBA|core.OutcomeOverlap {
				continue
			}
			st.OrderedPairs++
			st.FactsDecided += s.ProveOrder(a, eb) + s.RefuteOrder(eb, a) +
				s.RefuteOverlap(a, eb) + s.RefuteOverlap(eb, a)
		}
	}
	return st
}

// tierObserved mines the observed interleaving — a feasible interleaving
// under both feasibility notions — for existence witnesses.
func (b *builder) tierObserved() TierStats {
	obs := model.ObservedBefore(b.x, nil)
	s := b.sb
	st := TierStats{OrderedPairs: obs.Count()}
	n := b.x.NumEvents()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, eb := model.EventID(i), model.EventID(j)
			switch {
			case i == j:
			case obs.Has(a, eb):
				st.FactsDecided += s.ProveOrder(a, eb)
			case !obs.Has(eb, a):
				// Neither direction wholly ordered: the observed
				// interleaving overlapped the two.
				st.FactsDecided += s.ProveOverlap(a, eb)
			}
		}
	}
	return st
}

// tierDAG records every other outcome the graph rules out: a T b refutes
// canOrder(a, b), and overlap refutes canOverlap (the pair (b, a) records
// the other direction). On a certified execution (core's completeness
// certificate, DESIGN S44) the graph's linear extensions are exactly the
// feasible interleavings, so every outcome it leaves open occurs: the tier
// then also proves canOrder(a, b) unless a T b is ruled out, and
// canOverlap(a, b) unless overlap is, and decides every pair.
func (b *builder) tierDAG() TierStats {
	s := b.sb
	certified := b.an.Certified()
	var st TierStats
	n := b.x.NumEvents()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a, eb := model.EventID(i), model.EventID(j)
			ex := b.an.Excluded(a, eb)
			if ex != 0 {
				st.OrderedPairs++
			}
			if ex&core.OutcomeAB != 0 {
				st.FactsDecided += s.RefuteOrder(a, eb)
			} else if certified {
				st.FactsDecided += s.ProveOrder(a, eb)
			}
			if ex&core.OutcomeOverlap != 0 {
				st.FactsDecided += s.RefuteOverlap(a, eb)
			} else if certified {
				st.FactsDecided += s.ProveOverlap(a, eb)
			}
		}
	}
	return st
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

// Analyze runs the full tiered pipeline on one analyzer: build it with
// copts, plan from it (BuildFrom, the cascade prefix mopts.Tiers selects;
// negative disables it), then hand its seed to the exact batch engine on
// the same analyzer for the residue. Complete verdicts are bit-identical
// to an unplanned core.Matrix run; only the work differs. The tiers and
// the engine share copts.IgnoreData as their one feasibility notion.
//
// When mopts.Resume carries a checkpoint the planning cascade is skipped
// entirely — the original run's seed travels inside the checkpoint, so
// re-planning would be wasted work — and Result.Plan is nil. A resumed
// analysis that is interrupted again returns a partial Result.Matrix
// exactly like a first run would.
func Analyze(ctx context.Context, x *model.Execution, kinds []core.RelKind, copts core.Options, mopts core.MatrixOpts) (*Result, error) {
	an, err := core.New(x, copts)
	if err != nil {
		return nil, err
	}
	var p *Plan
	if mopts.Resume == nil {
		start := time.Now()
		if p, err = BuildFrom(an, kinds, mopts.Tiers); err != nil {
			return nil, err
		}
		if mopts.OnPhase != nil {
			mopts.OnPhase("plan", time.Since(start))
		}
	}
	return AnalyzePlanned(ctx, an, kinds, mopts, p)
}

// AnalyzePlanned is Analyze for callers that already planned from an (or
// deliberately hold no plan): it seeds the exact batch engine on an with
// p's fact bracket (when p is non-nil and mopts.Tiers is non-negative)
// and settles the residue. The split exists for admission control: a
// front end can plan on the request path, use the residue as a cost
// estimate to pick a lane, and hand the analyzer and its plan to a worker
// without building either again. p must come from BuildFrom on an for the
// same kinds; mopts.Resume requires a nil p (the checkpoint carries the
// original seed). An analyzer serves one goroutine at a time, so the
// planner must be done with an before the call.
func AnalyzePlanned(ctx context.Context, an *core.Analyzer, kinds []core.RelKind, mopts core.MatrixOpts, p *Plan) (*Result, error) {
	if len(kinds) == 0 {
		kinds = core.AllRelKinds
	}
	if p != nil && mopts.Resume != nil {
		return nil, fmt.Errorf("plan: AnalyzePlanned with both a plan and a resume checkpoint (the seed travels inside the checkpoint)")
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
