package core

import (
	"fmt"
	"math/rand"

	"eventorder/internal/model"
)

// SampleResult carries relations estimated by randomly sampling feasible
// interleavings.
type SampleResult struct {
	Relations map[RelKind]*model.Relation
	Samples   int
}

// SampleRelations approximates the six ordering relations by drawing
// random complete feasible interleavings (a guided random walk: each step
// picks a uniformly random enabled action whose successor state can still
// complete, so every walk yields a feasible execution).
//
// The estimates are one-sided: a could-relation (CHB/CCW/COW) is reported
// only with a witness, so sampled ⊆ exact; a must-relation (MHB/MCW/MOW)
// is refuted only by a witness, so exact ⊆ sampled. Tests pin both
// containments. This is the Monte-Carlo middle ground between the exact
// exponential engine and the incomplete static baselines: coverage grows
// with samples, but the paper's hardness results mean no polynomial sample
// count certifies a must-relation in general.
func (a *Analyzer) SampleRelations(samples int, seed int64) (*SampleResult, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("core: samples must be positive")
	}
	a.symmetry()
	rng := rand.New(rand.NewSource(seed))
	n := len(a.x.Events)
	sawOrder := make([][]bool, n)
	sawOverlap := make([][]bool, n)
	for i := range sawOrder {
		sawOrder[i] = make([]bool, n)
		sawOverlap[i] = make([]bool, n)
	}
	pos := make([]int, len(a.acts))
	budget := a.opts.MaxNodes
	for s := 0; s < samples; s++ {
		if err := a.sampleWalk(rng, pos, &budget); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				iEnd, jBegin := pos[a.evEndAct[i]], pos[a.evBeginAct[j]]
				jEnd, iBegin := pos[a.evEndAct[j]], pos[a.evBeginAct[i]]
				switch {
				case iEnd < jBegin:
					sawOrder[i][j] = true
				case jEnd < iBegin:
					sawOrder[j][i] = true
				default:
					sawOverlap[i][j] = true
					sawOverlap[j][i] = true
				}
			}
		}
	}

	res := &SampleResult{
		Relations: make(map[RelKind]*model.Relation, 6),
		Samples:   samples,
	}
	for _, kind := range AllRelKinds {
		res.Relations[kind] = model.NewRelation(kind.String()+"~", n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			ea, eb := model.EventID(i), model.EventID(j)
			if sawOrder[i][j] {
				res.Relations[RelCHB].Set(ea, eb)
			}
			if sawOverlap[i][j] {
				res.Relations[RelCCW].Set(ea, eb)
			}
			if sawOrder[i][j] || sawOrder[j][i] {
				res.Relations[RelCOW].Set(ea, eb)
			}
			if !sawOrder[j][i] && !sawOverlap[i][j] {
				res.Relations[RelMHB].Set(ea, eb)
			}
			if !sawOrder[i][j] && !sawOrder[j][i] {
				res.Relations[RelMCW].Set(ea, eb)
			}
			if !sawOverlap[i][j] {
				res.Relations[RelMOW].Set(ea, eb)
			}
		}
	}
	return res, nil
}

// sampleWalk draws one complete feasible interleaving, writing action
// positions into pos. It relies on the persistent completion memo so the
// per-step completability probes amortize across samples.
func (a *Analyzer) sampleWalk(rng *rand.Rand, pos []int, budget *int64) error {
	a.resetState()
	can, err := a.canComplete(budget, 0)
	if err != nil {
		return err
	}
	if !can {
		return fmt.Errorf("core: execution cannot complete; nothing to sample")
	}
	var enabled []int32
	step := 0
	for !a.allDone() {
		enabled = a.appendEnabled(enabled[:0])
		// Shuffle candidates, take the first completable one.
		rng.Shuffle(len(enabled), func(i, j int) { enabled[i], enabled[j] = enabled[j], enabled[i] })
		advanced := false
		for _, id := range enabled {
			undo := a.step(id)
			can, err := a.canComplete(budget, 0)
			if err != nil {
				a.unstep(id, undo)
				return err
			}
			if can {
				pos[id] = step
				step++
				advanced = true
				break
			}
			a.unstep(id, undo)
		}
		if !advanced {
			return fmt.Errorf("core: internal error: sampling walk stuck")
		}
	}
	a.resetState()
	return nil
}
