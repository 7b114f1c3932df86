// Package oracle is the differential test harness that cross-validates
// every engine the repository ships for the same question: brute-force
// enumeration of all feasible interleavings, the per-pair memoized search
// (with and without process-symmetry reduction), the batch matrix engine
// (with and without symmetry, and the per-pair engine answering from the
// memo a complete batch run leaves behind), and the tiered polynomial
// planner (every cascade depth's fact bracket, plus the fully planned
// matrix with and without symmetry) must produce identical relation
// verdicts on every execution, and every witness schedule the engines
// emit must replay and exhibit its claim.
// Check runs the comparison; Verify additionally minimizes a failing
// execution with a seeded shrinker (greedily dropping processes and events
// while the disagreement persists) so a randomized-test failure arrives
// as a small reproducing trace rather than a 40-event haystack.
package oracle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"

	"eventorder/internal/core"
	"eventorder/internal/model"
	"eventorder/internal/plan"
	"eventorder/internal/traceio"
)

// Config bounds one differential check.
type Config struct {
	// IgnoreData drops shared-data dependence edges (condition F3) from
	// every engine symmetrically.
	IgnoreData bool
	// BruteLimit caps the brute-force enumeration; when an execution has
	// more feasible interleavings the brute engine is skipped (the
	// remaining engines still cross-check each other). 0 means the default
	// of 50000; negative disables brute entirely.
	BruteLimit int
	// MaxWitnessEvents caps the witness-validation phase: executions with
	// more events skip it (6·n·(n-1) witness searches). 0 means 20.
	MaxWitnessEvents int
	// MaxNodes is the per-search node budget handed to the engines; 0
	// uses the engine default.
	MaxNodes int64
}

func (c Config) withDefaults() Config {
	if c.BruteLimit == 0 {
		c.BruteLimit = 50_000
	}
	if c.MaxWitnessEvents == 0 {
		c.MaxWitnessEvents = 20
	}
	return c
}

// Check runs every engine over x and returns nil if all verdicts agree and
// all witnesses validate, or an error naming the first divergence.
func Check(x *model.Execution, cfg Config) error {
	cfg = cfg.withDefaults()
	opts := core.Options{IgnoreData: cfg.IgnoreData, MaxNodes: cfg.MaxNodes}

	// Reference: the per-pair search with symmetry reduction disabled —
	// the oldest, most directly paper-shaped decision procedure.
	refOpts := opts
	refOpts.DisableSymm = true
	ref, err := allRelations(x, refOpts)
	if err != nil {
		return fmt.Errorf("oracle: reference per-pair engine: %w", err)
	}

	if cfg.BruteLimit > 0 {
		brute, err := core.BruteRelations(x, opts, cfg.BruteLimit)
		switch {
		case errors.Is(err, core.ErrTruncated):
			// State space too large for enumeration; skip this engine.
		case err != nil:
			return fmt.Errorf("oracle: brute enumeration: %w", err)
		default:
			if err := compare("brute enumeration", x, brute.Relations, ref); err != nil {
				return err
			}
		}
	}

	// Per-pair engine with symmetry reduction.
	got, err := allRelations(x, opts)
	if err != nil {
		return fmt.Errorf("oracle: per-pair symm engine: %w", err)
	}
	if err := compare("per-pair symm", x, got, ref); err != nil {
		return err
	}

	// Batch engine with symmetry on and off. A complete run leaves its
	// state table behind as the analyzer's completion memo, so the
	// per-pair engine then answers every query on that same analyzer,
	// starting warm from the memo the batch handed over.
	for _, disableSymm := range []bool{false, true} {
		a, err := core.New(x, opts)
		if err != nil {
			return fmt.Errorf("oracle: analyzer: %w", err)
		}
		m, err := a.Matrix(context.Background(), nil, core.MatrixOpts{DisableSymm: disableSymm})
		tag := fmt.Sprintf("Matrix(disableSymm=%v)", disableSymm)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", tag, err)
		}
		if !m.Complete {
			return fmt.Errorf("oracle: %s returned a partial result with no interrupt", tag)
		}
		if err := compare(tag, x, m.Relations, ref); err != nil {
			return err
		}
		warm, err := a.AllRelations(context.Background())
		if err != nil {
			return fmt.Errorf("oracle: per-pair after %s: %w", tag, err)
		}
		if err := compare("per-pair after "+tag, x, warm, ref); err != nil {
			return err
		}
	}

	if err := checkPlanner(x, opts, ref); err != nil {
		return err
	}

	if len(x.Events) <= cfg.MaxWitnessEvents {
		if err := checkWitnesses(x, opts, ref); err != nil {
			return err
		}
	}
	return nil
}

// checkPlanner cross-validates the tiered polynomial planner against the
// reference: at every cascade depth the plan's fact bracket may claim
// only verdicts the reference confirms, its provenance must account for
// every ordered pair (no undecided pair silently attributed to a
// polynomial tier, none dropped between decided and residue), and the
// fully planned Matrix must be bit-identical to the reference.
func checkPlanner(x *model.Execution, opts core.Options, ref map[core.RelKind]*model.Relation) error {
	n := len(x.Events)
	for tiers := 1; tiers <= plan.NumPolyTiers; tiers++ {
		p, err := plan.Build(x, nil, plan.Options{IgnoreData: opts.IgnoreData, Tiers: tiers})
		if err != nil {
			return fmt.Errorf("oracle: plan.Build(tiers=%d): %w", tiers, err)
		}
		if p.TotalPairs != n*(n-1) {
			return fmt.Errorf("oracle: plan(tiers=%d) counts %d total pairs, want %d", tiers, p.TotalPairs, n*(n-1))
		}
		decided := 0
		for _, st := range p.Tiers {
			decided += st.PairsDecided
		}
		if decided+p.Residue != p.TotalPairs {
			return fmt.Errorf("oracle: plan(tiers=%d) accounting: %d decided + %d residue != %d pairs",
				tiers, decided, p.Residue, p.TotalPairs)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				ea, eb := model.EventID(i), model.EventID(j)
				tier := p.DecidedTier(ea, eb)
				for _, kind := range core.AllRelKinds {
					v := p.Seed.Verdict(kind, ea, eb)
					if v.Decided() && v.Holds() != ref[kind].Has(ea, eb) {
						return fmt.Errorf("oracle: plan(tiers=%d) claims %s(%s, %s) = %v, reference says %v",
							tiers, kind, x.EventName(ea), x.EventName(eb), v.Holds(), ref[kind].Has(ea, eb))
					}
					if tier != plan.TierExact && !v.Decided() {
						return fmt.Errorf("oracle: plan(tiers=%d) attributes (%s, %s) to tier %s with %s undecided",
							tiers, x.EventName(ea), x.EventName(eb), tier, kind)
					}
				}
			}
		}
	}
	// The fully planned Matrix must be bit-identical to the reference with
	// symmetry on and off.
	for _, disableSymm := range []bool{false, true} {
		copts := opts
		copts.DisableSymm = disableSymm
		res, err := plan.Analyze(context.Background(), x, nil, copts, core.MatrixOpts{})
		if err != nil {
			return fmt.Errorf("oracle: plan.Analyze(disableSymm=%v): %w", disableSymm, err)
		}
		tag := fmt.Sprintf("planned Matrix(disableSymm=%v)", disableSymm)
		if err := compare(tag, x, res.Relations, ref); err != nil {
			return err
		}
	}
	return nil
}

// allRelations answers all six relations per-pair on a fresh analyzer.
func allRelations(x *model.Execution, opts core.Options) (map[core.RelKind]*model.Relation, error) {
	a, err := core.New(x, opts)
	if err != nil {
		return nil, err
	}
	return a.AllRelations(context.Background())
}

// compare diffs an engine's six matrices against the reference.
func compare(tag string, x *model.Execution, got, want map[core.RelKind]*model.Relation) error {
	for _, kind := range core.AllRelKinds {
		g, w := got[kind], want[kind]
		if g.Equal(w) {
			continue
		}
		for i := range x.Events {
			for j := range x.Events {
				ea, eb := model.EventID(i), model.EventID(j)
				if g.Has(ea, eb) != w.Has(ea, eb) {
					return fmt.Errorf("oracle: %s disagrees with reference on %s(%s, %s): got %v, want %v",
						tag, kind, x.EventName(ea), x.EventName(eb), g.Has(ea, eb), w.Has(ea, eb))
				}
			}
		}
		return fmt.Errorf("oracle: %s disagrees with reference on %s (no differing pair?)", tag, kind)
	}
	return nil
}

// checkWitnesses validates every witness schedule against the reference
// verdicts: the verdict must match, an order must accompany exactly the
// demonstrable verdicts, and the order must replay under the exploration
// constraints and exhibit (or violate) the relation it claims to.
func checkWitnesses(x *model.Execution, opts core.Options, ref map[core.RelKind]*model.Relation) error {
	a, err := core.New(x, opts)
	if err != nil {
		return fmt.Errorf("oracle: witness analyzer: %w", err)
	}
	constraints := model.OpConstraintsForExploration(x, opts.IgnoreData)
	for _, kind := range core.AllRelKinds {
		for i := range x.Events {
			for j := range x.Events {
				if i == j {
					continue
				}
				ea, eb := model.EventID(i), model.EventID(j)
				w, err := a.WitnessSchedule(context.Background(), kind, ea, eb)
				if err != nil {
					return fmt.Errorf("oracle: WitnessSchedule(%s, %d, %d): %w", kind, ea, eb, err)
				}
				tag := fmt.Sprintf("%s(%s, %s)", kind, x.EventName(ea), x.EventName(eb))
				if want := ref[kind].Has(ea, eb); w.Holds != want {
					return fmt.Errorf("oracle: witness verdict for %s = %v, reference says %v", tag, w.Holds, want)
				}
				wantOrder := w.Holds != kind.MustHave() // could+true or must+false
				if (w.Order != nil) != wantOrder {
					return fmt.Errorf("oracle: witness for %s: order present=%v, want %v", tag, w.Order != nil, wantOrder)
				}
				if w.Order == nil {
					continue
				}
				if err := model.Replay(x, w.Order, constraints); err != nil {
					return fmt.Errorf("oracle: witness for %s does not replay: %w", tag, err)
				}
				if !witnessExhibits(kind, w, ea, eb) {
					return fmt.Errorf("oracle: witness schedule for %s does not exhibit its claim", tag)
				}
			}
		}
	}
	return nil
}

// eventSpan returns the first and last step indices touching event e.
func eventSpan(steps []core.WitnessStep, e model.EventID) (begin, end int) {
	begin, end = -1, -1
	for i, s := range steps {
		if s.Event != e {
			continue
		}
		if begin < 0 {
			begin = i
		}
		end = i
	}
	return begin, end
}

// witnessExhibits checks the claim a witness order makes: for a could-
// relation the schedule exhibits the property; for a must-relation it is a
// counterexample violating it.
func witnessExhibits(kind core.RelKind, w core.Witness, ea, eb model.EventID) bool {
	aBegin, aEnd := eventSpan(w.Steps, ea)
	bBegin, bEnd := eventSpan(w.Steps, eb)
	if aBegin < 0 || bBegin < 0 {
		return false
	}
	aFirst := aEnd < bBegin // a wholly before b
	bFirst := bEnd < aBegin // b wholly before a
	overlap := !aFirst && !bFirst
	switch kind {
	case core.RelCHB:
		return aFirst
	case core.RelCCW:
		return overlap
	case core.RelCOW:
		return aFirst || bFirst
	case core.RelMHB: // counterexample: an interleaving where a is not before b
		return !aFirst
	case core.RelMCW: // counterexample: an interleaving ordering the two
		return aFirst || bFirst
	case core.RelMOW: // counterexample: an interleaving overlapping the two
		return overlap
	}
	return false
}

// Shrink greedily minimizes a Check-failing execution: it tries dropping
// whole processes, then single events, accepting any candidate that still
// fails, until a fixpoint. Candidate order is drawn from rng so distinct
// seeds explore different minima. Executions using fork/join are returned
// unshrunk (dropping events around fork edges changes process structure in
// ways the rebuild does not model).
func Shrink(x *model.Execution, cfg Config, rng *rand.Rand) *model.Execution {
	return shrink(x, func(cand *model.Execution) bool { return Check(cand, cfg) != nil }, rng)
}

// shrink is Shrink against an arbitrary failure predicate: it returns the
// smallest execution it can reach (by dropping processes, then events) on
// which fails still reports true.
func shrink(x *model.Execution, fails func(*model.Execution) bool, rng *rand.Rand) *model.Execution {
	if hasForkJoin(x) {
		return x
	}
	cur := x
	for {
		improved := false
		for _, p := range rng.Perm(len(cur.Procs)) {
			if len(cur.Procs) < 2 {
				break
			}
			if cand := rebuildWithout(cur, model.ProcID(p), model.EventID(model.NoID)); cand != nil && fails(cand) {
				cur, improved = cand, true
				break
			}
		}
		if improved {
			continue
		}
		for _, e := range rng.Perm(len(cur.Events)) {
			if len(cur.Events) < 2 {
				break
			}
			if cand := rebuildWithout(cur, model.ProcID(model.NoID), model.EventID(e)); cand != nil && fails(cand) {
				cur, improved = cand, true
				break
			}
		}
		if !improved {
			return cur
		}
	}
}

// hasForkJoin reports whether any op forks or joins a process.
func hasForkJoin(x *model.Execution) bool {
	for i := range x.Ops {
		if k := x.Ops[i].Kind; k == model.OpFork || k == model.OpJoin {
			return true
		}
	}
	return false
}

// rebuildWithout reconstructs x minus one process (dropProc) or one event
// (dropEvent), re-scheduling the result with the exhaustive scheduler.
// Returns nil when the candidate is empty or cannot complete.
func rebuildWithout(x *model.Execution, dropProc model.ProcID, dropEvent model.EventID) *model.Execution {
	b := model.NewBuilder()
	for _, s := range x.Sems {
		b.Sem(s.Name, s.Init, s.Kind)
	}
	for name, posted := range x.EvInit {
		b.EventVar(name, posted)
	}
	events := 0
	for pi := range x.Procs {
		proc := &x.Procs[pi]
		if proc.ID == dropProc {
			continue
		}
		pb := b.Proc(proc.Name)
		for _, opID := range proc.Ops {
			op := &x.Ops[opID]
			if op.Event == dropEvent {
				continue
			}
			ev := &x.Events[op.Event]
			if ev.Label != "" && opID == ev.First() {
				pb.Label(ev.Label)
			}
			switch op.Kind {
			case model.OpNop:
				pb.Nop()
			case model.OpRead:
				pb.Read(op.Obj)
			case model.OpWrite:
				pb.Write(op.Obj)
			case model.OpAcquire:
				pb.P(op.Obj)
			case model.OpRelease:
				pb.V(op.Obj)
			case model.OpPost:
				pb.Post(op.Obj)
			case model.OpWait:
				pb.Wait(op.Obj)
			case model.OpClear:
				pb.Clear(op.Obj)
			default:
				return nil // fork/join: caller filtered these out
			}
			events++
		}
	}
	if events == 0 {
		return nil
	}
	cand, err := b.BuildDeferred()
	if err != nil {
		return nil
	}
	if err := core.Schedule(cand, core.Options{MaxNodes: 500_000}); err != nil {
		return nil
	}
	return cand
}

// Verify is Check plus failure minimization: on disagreement it shrinks the
// execution with the seeded shrinker and returns an error carrying both the
// original divergence and the minimized trace as serialized JSON, ready to
// replay.
func Verify(x *model.Execution, cfg Config, rng *rand.Rand) error {
	err := Check(x, cfg)
	if err == nil {
		return nil
	}
	min := Shrink(x, cfg, rng)
	minErr := Check(min, cfg)
	if minErr == nil { // shouldn't happen: Shrink only accepts failing candidates
		minErr = err
	}
	var buf bytes.Buffer
	if serr := traceio.SaveExecution(&buf, min); serr != nil {
		return fmt.Errorf("%w (minimized repro could not be serialized: %v)", minErr, serr)
	}
	return fmt.Errorf("%w\nminimized repro (%d procs, %d events, originally %d events):\n%s",
		minErr, len(min.Procs), len(min.Events), len(x.Events), buf.String())
}
