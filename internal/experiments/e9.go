package experiments

import (
	"fmt"
	"time"

	"eventorder/internal/core"
	"eventorder/internal/model"
	"eventorder/internal/semsched"
)

// runE9 explores the paper's single-semaphore remark: the hardness results
// survive restriction to one counting semaphore (reduction from SS7,
// sequencing to minimize maximum cumulative cost). The experiment (a)
// verifies the SS7 ⇔ single-semaphore-feasibility equivalence on random
// instances, and (b) measures the symmetry-reduced solver against the
// generic engine on workloads with many identical processes.
func runE9(cfg Config) error {
	rng := cfg.rng()

	// (a) SS7 equivalence.
	trials := 150
	if cfg.Quick {
		trials = 20
	}
	agree := 0
	for trial := 0; trial < trials; trial++ {
		in := &semsched.Instance{Init: rng.Intn(3)}
		np := 1 + rng.Intn(4)
		for p := 0; p < np; p++ {
			var prof []int8
			for o, n := 0, rng.Intn(5); o < n; o++ {
				if rng.Intn(2) == 0 {
					prof = append(prof, +1)
				} else {
					prof = append(prof, -1)
				}
			}
			in.Procs = append(in.Procs, prof)
		}
		tasks, k := in.ToSMMCC()
		if len(tasks) > 62 {
			continue
		}
		smmcc, err := semsched.SMMCCDecide(tasks, k)
		if err != nil {
			return err
		}
		if smmcc == in.CanComplete() {
			agree++
		} else {
			return fmt.Errorf("trial %d: SS7 disagreement", trial)
		}
	}
	fmt.Fprintf(cfg.Out, "(a) SS7 ⇔ single-semaphore feasibility: %d/%d random instances agree\n\n", agree, trials)

	// (b) symmetry-reduced solver vs generic engine on a workload that
	// forces exhaustive exploration: n identical P;V processes (init 2, so
	// two can hold tokens concurrently) plus one process that needs three
	// tokens at once — infeasible, so both solvers must refute *every*
	// interleaving. The generic engine's state space is Θ(n²·2ⁿ); the
	// symmetry-reduced multiset space is O(n²).
	fmt.Fprintln(cfg.Out, "(b) refuting completion: n identical P;V processes (init 2) + one P;P;P process:")
	sizes := []int{4, 8, 12, 14}
	if cfg.Quick {
		sizes = []int{4, 6}
	}
	t := newTable(cfg.Out, "processes", "ops", "generic nodes", "generic time", "symmetry time", "verdicts agree (infeasible)")
	for _, n := range sizes {
		b := model.NewBuilder()
		b.Sem("s", 2, model.SemCounting)
		for i := 0; i < n; i++ {
			pb := b.Proc(fmt.Sprintf("worker%d", i))
			pb.P("s")
			pb.V("s")
		}
		greedy := b.Proc("greedy")
		greedy.P("s")
		greedy.P("s")
		greedy.P("s")
		x, err := b.BuildDeferred()
		if err != nil {
			return err
		}
		in, err := semsched.FromExecution(x)
		if err != nil {
			return err
		}

		start := time.Now()
		symOK := in.CanComplete()
		symTime := time.Since(start)

		a, err := core.NewUnscheduled(x, core.Options{DisableSymm: true})
		if err != nil {
			return err
		}
		start = time.Now()
		genOK, err := a.CanComplete()
		if err != nil {
			return err
		}
		genTime := time.Since(start)

		t.row(n+1, in.NumOps(), a.Stats().Nodes,
			genTime.Round(time.Microsecond), symTime.Round(time.Microsecond),
			boolMark(symOK == genOK && !symOK))
		if symOK != genOK || symOK {
			return fmt.Errorf("solver disagreement at n=%d (sym=%v gen=%v)", n, symOK, genOK)
		}
	}
	t.flush()
	fmt.Fprintln(cfg.Out, "the symmetry-reduced state space (multiset of identical remaining profiles)")
	fmt.Fprintln(cfg.Out, "collapses the exponential process-position product; the generic engine cannot")
	fmt.Fprintln(cfg.Out, "exploit interchangeability. Hardness persists in the worst case (SS7 is")
	fmt.Fprintln(cfg.Out, "NP-complete) — the speedup is structural, not a refutation of Theorem 1.")
	return nil
}
