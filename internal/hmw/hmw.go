// Package hmw implements the three-phase trace-analysis algorithm of
// Helmbold, McDowell, and Wang ("Analyzing Traces with Anonymous
// Synchronization", ICPP 1990), the second related-work baseline of the
// paper's Section 4. It applies to executions that use fork/join and
// counting semaphores.
//
// Given an observed execution, the algorithm computes orderings between
// events in polynomial time:
//
//   - Phase 1 (pairing, UNSAFE): per semaphore, order the i-th V event
//     before the i-th P event of the observed trace and close transitively
//     with program order. Another feasible execution may pair the
//     operations differently, so this relation can claim orderings that are
//     not guaranteed — it is a diagnostic baseline, not a safe analysis.
//
//   - Phase 2 (sole-supplier, SAFE but conservative): starting from program
//     order and fork/join edges, a single counting pass adds V → P edges
//     whenever the P event cannot complete unless that V precedes it: with
//     initial value c, a P event known to be preceded by k other P events
//     on the same semaphore needs k+1-c prior V events, and if the V events
//     not already known to follow it number exactly k+1-c, all of them are
//     necessary.
//
//   - Phase 3 (fixpoint, SAFE): iterates the phase-2 rule to a fixpoint,
//     letting freshly derived orderings sharpen the counts — the analogue
//     of HMW's third phase, which "adds additional safe orderings by
//     considering that only some P events can actually execute after
//     certain V events".
//
// Every phase runs in polynomial time, so by the paper's Theorem 1 the safe
// phases are necessarily incomplete: they compute a strict subset of the
// exact must-have-happened-before relation in general (experiment E6
// measures the gap). Safety of phases 2–3 (HMW ⊆ MHB) is property-tested
// against the exact engine.
//
// This is a reimplementation from the description in Netzer & Miller's
// Section 4; details HMW do not specify there are filled in as documented
// above.
package hmw

import (
	"fmt"
	"sort"

	"eventorder/internal/model"
)

// Result carries the three phase relations.
type Result struct {
	Phase1 *model.Relation // pairing-based, unsafe
	Phase2 *model.Relation // one counting pass, safe
	Phase3 *model.Relation // counting fixpoint, safe
	Rounds int             // fixpoint iterations used by phase 3
}

// Analyze runs all three phases. Executions using event variables are
// rejected (HMW analyze semaphore traces; use taskgraph for event style).
func Analyze(x *model.Execution) (*Result, error) {
	if err := model.Validate(x); err != nil {
		return nil, err
	}
	for i := range x.Ops {
		switch x.Ops[i].Kind {
		case model.OpPost, model.OpWait, model.OpClear:
			return nil, fmt.Errorf("hmw: execution uses event variables (op %d); the HMW algorithm covers semaphore traces only", i)
		}
	}

	res := &Result{}
	res.Phase1 = phase1(x)
	p2, _ := countingPhases(x, 1)
	res.Phase2 = p2
	p3, rounds := countingPhases(x, 0)
	res.Phase3 = p3
	res.Rounds = rounds
	return res, nil
}

// semEvents returns, per semaphore, the V and P events in observed order.
func semEvents(x *model.Execution) (vs, ps map[string][]model.EventID) {
	pos := make([]int, len(x.Ops))
	for i, id := range x.Order {
		pos[id] = i
	}
	vs = map[string][]model.EventID{}
	ps = map[string][]model.EventID{}
	for e := range x.Events {
		ev := &x.Events[e]
		switch ev.Kind {
		case model.OpRelease:
			vs[ev.Obj] = append(vs[ev.Obj], model.EventID(e))
		case model.OpAcquire:
			ps[ev.Obj] = append(ps[ev.Obj], model.EventID(e))
		}
	}
	byPos := func(events []model.EventID) {
		sort.Slice(events, func(i, j int) bool {
			return pos[x.Events[events[i]].First()] < pos[x.Events[events[j]].First()]
		})
	}
	for _, events := range vs {
		byPos(events)
	}
	for _, events := range ps {
		byPos(events)
	}
	return vs, ps
}

// phase1 pairs the i-th V with the i-th P of the observed trace. With
// initial value c, the i-th P (0-based) is paired with the (i-c)-th V.
func phase1(x *model.Execution) *model.Relation {
	r := model.ProgramOrder(x)
	r.Name = "HMW1"
	vs, ps := semEvents(x)
	for sem, pEvents := range ps {
		c := x.Sems[sem].Init
		vEvents := vs[sem]
		for i, p := range pEvents {
			vIdx := i - c
			if vIdx >= 0 && vIdx < len(vEvents) {
				r.Set(vEvents[vIdx], p)
			}
		}
	}
	r.TransitiveClose()
	return r
}

// countingPhases runs the sole-supplier counting rule. maxRounds = 1 gives
// phase 2; maxRounds = 0 iterates to a fixpoint (phase 3). It returns the
// relation and the number of rounds performed.
func countingPhases(x *model.Execution, maxRounds int) (*model.Relation, int) {
	name := "HMW3"
	if maxRounds == 1 {
		name = "HMW2"
	}
	r := model.ProgramOrder(x)
	r.Name = name
	vs, ps := semEvents(x)

	rounds := 0
	for {
		rounds++
		changed := false
		for sem, pEvents := range ps {
			c := x.Sems[sem].Init
			vEvents := vs[sem]
			for _, p := range pEvents {
				// Lower bound on V events that must precede p: every P on
				// this semaphore already known to precede p consumed one
				// token, and p itself needs one, minus the initial value.
				kBefore := 0
				for _, q := range pEvents {
					if q != p && r.Has(q, p) {
						kBefore++
					}
				}
				need := kBefore + 1 - c
				if need <= 0 {
					continue
				}
				// Possible suppliers: V events not known to follow p.
				var avail []model.EventID
				for _, v := range vEvents {
					if !r.Has(p, v) {
						avail = append(avail, v)
					}
				}
				if len(avail) == need {
					for _, v := range avail {
						if !r.Has(v, p) {
							r.Set(v, p)
							changed = true
						}
					}
				}
			}
		}
		if changed {
			r.TransitiveClose()
		}
		if !changed || (maxRounds > 0 && rounds >= maxRounds) {
			break
		}
	}
	return r, rounds
}
