package experiments

import (
	"errors"
	"fmt"
	"time"

	"eventorder/internal/core"
	"eventorder/internal/hmw"
	"eventorder/internal/model"
	"eventorder/internal/reduction"
	"eventorder/internal/sat"
	"eventorder/internal/vclock"
)

// runE7 turns the hardness theorems into scaling curves: wall time and
// search nodes of one exact MHB query versus the complete polynomial
// analyses, as the number of independent mutual-exclusion processes grows.
// The exact engine's state space is exponential in the process count; the
// baselines stay polynomial.
func runE7(cfg Config) error {
	sizes := []int{1, 2, 3, 4, 5, 6, 7}
	if cfg.Quick {
		sizes = []int{1, 2}
	}
	// Workload: a semaphore-enforced ordering a → b through two relays
	// plus n independent "noise" processes (e7Instance). The measured
	// query is MHB(a, b): a must-have property, so the engine has to refute
	// the existence of a violating interleaving across the whole space —
	// and the noise processes are unrelated to a and b, so every
	// interleaving of theirs yields a fresh state while the monitor is
	// still unresolved. Nodes grow exponentially in n; the polynomial
	// analyses barely notice.
	t := newTable(cfg.Out, "instance", "procs", "events", "actions",
		"exact MHB query nodes", "exact time", "HMW3 full time", "VC full time")
	measure := func(name string, n int, twoSuppliers bool) error {
		x, err := e7Instance(n, twoSuppliers)
		if err != nil {
			return err
		}
		a, err := core.New(x, core.Options{})
		if err != nil {
			return err
		}
		start := time.Now()
		mhb, err := a.MHB(x.MustEventByLabel("a").ID, x.MustEventByLabel("b").ID)
		if err != nil {
			return err
		}
		if !mhb {
			return fmt.Errorf("semaphore invariant broken: a not MHB b")
		}
		exactTime := time.Since(start)
		nodes := a.Stats().Nodes

		start = time.Now()
		if _, err := hmw.Analyze(x); err != nil {
			return err
		}
		hmwTime := time.Since(start)

		start = time.Now()
		if _, err := vclock.Compute(x); err != nil {
			return err
		}
		vcTime := time.Since(start)

		t.row(name, x.NumProcs(), x.NumEvents(), a.NumActions(), nodes,
			exactTime.Round(time.Microsecond),
			hmwTime.Round(time.Microsecond),
			vcTime.Round(time.Microsecond))
		return nil
	}
	for _, n := range sizes {
		if err := measure("two suppliers", n, true); err != nil {
			return err
		}
	}
	// The single-supplier instance is decided by counting alone: the
	// pre-check's supply edge answers it without search at any size.
	if err := measure("one supplier", sizes[len(sizes)-1], false); err != nil {
		return err
	}
	t.flush()
	fmt.Fprintln(cfg.Out, "claim reproduced: exact per-pair decisions blow up exponentially with the")
	fmt.Fprintln(cfg.Out, "number of concurrent processes while the (incomplete) polynomial analyses")
	fmt.Fprintln(cfg.Out, "grow mildly — the practical face of the co-NP/NP-hardness results.")

	// Reduction-driven scaling: the adversarial instances from Theorem 1.
	fmt.Fprintln(cfg.Out, "\nadversarial scaling (Theorem 1 instances, query a MHB b):")
	rng := cfg.rng()
	type size struct{ n, m int }
	rsizes := []size{{1, 1}, {1, 2}, {2, 2}, {2, 3}}
	if cfg.Quick {
		rsizes = []size{{1, 1}}
	}
	t2 := newTable(cfg.Out, "vars", "clauses", "procs", "actions", "nodes", "time")
	for _, s := range rsizes {
		f := randomSmallFormula(rng, s.n, s.m)
		row, err := measureReduction(f, 0, "mhb", core.Options{})
		if err != nil {
			return err
		}
		t2.row(s.n, s.m, row.procs, row.actions, row.nodes, row.elapsed.Round(time.Microsecond))
	}
	t2.flush()

	// The wall: grow the instances under a fixed node budget and report
	// where the exact decision stops fitting — the operational meaning of
	// "intractable".
	fmt.Fprintln(cfg.Out, "\nthe wall (node budget 300,000 per MHB query):")
	const budget = 300_000
	wall := []struct{ n, m int }{{1, 1}, {2, 2}, {3, 3}, {3, 5}, {4, 7}}
	if cfg.Quick {
		wall = wall[:2]
	}
	t3 := newTable(cfg.Out, "vars", "clauses", "procs", "outcome", "nodes / time")
	for _, s := range wall {
		f := randomSmallFormula(rng, s.n, s.m)
		inst, err := reductionBuild(f)
		if err != nil {
			return err
		}
		a, err := core.New(inst.X, core.Options{MaxNodes: budget})
		if err != nil {
			return err
		}
		start := time.Now()
		_, err = a.MHB(inst.A, inst.B)
		elapsed := time.Since(start)
		switch {
		case err == nil:
			t3.row(s.n, s.m, inst.X.NumProcs(), "decided",
				fmt.Sprintf("%d / %v", a.Stats().Nodes, elapsed.Round(time.Millisecond)))
		case errors.Is(err, core.ErrBudget):
			t3.row(s.n, s.m, inst.X.NumProcs(), "BUDGET EXCEEDED",
				fmt.Sprintf(">%d / %v", budget, elapsed.Round(time.Millisecond)))
		default:
			return err
		}
	}
	t3.flush()
	fmt.Fprintln(cfg.Out, "past the wall only the witness-style (could-have) queries and the")
	fmt.Fprintln(cfg.Out, "polynomial approximations remain usable — the theorems, operationally.")
	return nil
}

// e7Instance builds E7's scaling workload: a ordered before b through
// semaphores, plus n noise processes with one computation event each. With
// twoSuppliers, pa runs a then V(t) twice, relay0 and relay1 each run
// P(t); V(s), and pb runs P(s) then b: MHB(a, b) holds, but counting
// cannot tell which relay feeds b, so the search must refute every
// violating interleaving. Without, pa runs a; V(s) and pb's P(s) can take
// only that V, which the pre-check's supply edges decide without search.
func e7Instance(n int, twoSuppliers bool) (*model.Execution, error) {
	b := model.NewBuilder()
	b.Sem("s", 0, model.SemCounting)
	pa := b.Proc("pa")
	pa.Label("a").Nop()
	if twoSuppliers {
		b.Sem("t", 0, model.SemCounting)
		pa.V("t")
		pa.V("t")
		for i := 0; i < 2; i++ {
			relay := b.Proc(fmt.Sprintf("relay%d", i))
			relay.P("t")
			relay.V("s")
		}
	} else {
		pa.V("s")
	}
	pb := b.Proc("pb")
	pb.P("s")
	pb.Label("b").Nop()
	for i := 0; i < n; i++ {
		b.Proc(fmt.Sprintf("noise%d", i)).Nop()
	}
	return b.Build()
}

// reductionBuild is a tiny helper keeping the wall loop readable.
func reductionBuild(f *sat.Formula) (*reduction.Instance, error) {
	return reduction.Build(f, reduction.StyleSemaphore, core.Options{})
}
