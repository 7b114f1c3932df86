// Command eventorder is the main CLI: it runs mini-language programs into
// trace files and analyzes traces with the exact engine, the baselines, and
// the race detectors.
//
// Usage:
//
//	eventorder run [-seed N] [-tries N] [-o trace.json] prog.evo
//	eventorder analyze [-rel MHB] [-a label -b label | -all] [-ignore-data] [-budget N] [-checkpoint f] [-resume f] trace.json
//	eventorder races [-budget N] trace.json
//	eventorder taskgraph [-dot] trace.json
//	eventorder hmw trace.json
//	eventorder vclock trace.json
//	eventorder show trace.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"

	"eventorder/internal/core"
	"eventorder/internal/hmw"
	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
	"eventorder/internal/plan"
	"eventorder/internal/race"
	"eventorder/internal/staticorder"
	"eventorder/internal/taskgraph"
	"eventorder/internal/traceio"
	"eventorder/internal/vclock"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "races":
		err = cmdRaces(os.Args[2:])
	case "taskgraph":
		err = cmdTaskgraph(os.Args[2:])
	case "hmw":
		err = cmdHMW(os.Args[2:])
	case "vclock":
		err = cmdVClock(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "explore":
		err = cmdExplore(os.Args[2:])
	case "static":
		err = cmdStatic(os.Args[2:])
	case "sample":
		err = cmdSample(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "eventorder: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "eventorder: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `eventorder — event-ordering analysis for shared-memory program executions

subcommands:
  run        execute a mini-language program and record its trace
  analyze    decide the six ordering relations on a trace
  races      run the exact / vector-clock / program-order race detectors
  taskgraph  build the Emrath-Ghosh-Padua task graph (event-style traces)
  hmw        run the Helmbold-McDowell-Wang phases (semaphore traces)
  vclock     compute the vector-clock happened-before relation
  show       print a trace summary
  explore    model-check a program: outcomes/deadlocks over ALL schedules
  static     static guaranteed orderings of a loop-free, Clear-free program
  sample     estimate the relations from random feasible interleavings
  compare    side-by-side: exact MHB vs every applicable baseline

run 'eventorder <subcommand> -h' for flags.`)
}

func loadTrace(path string) (*model.Execution, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return traceio.LoadExecution(f)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random scheduler seed")
	tries := fs.Int("tries", 64, "schedules to try before giving up on deadlocks")
	out := fs.String("o", "", "trace output file (default: stdout)")
	granular := fs.Bool("op-granular", false, "schedule at shared-access granularity (observed computation events may overlap)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run: want exactly one program file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		return err
	}
	var res *interp.Result
	if *granular {
		var lastErr error
		for try := 0; try < *tries; try++ {
			res, lastErr = interp.Run(prog, interp.Options{
				Sched:      interp.NewRandom(*seed + int64(try)),
				OpGranular: true,
			})
			if lastErr == nil {
				break
			}
			if _, isDeadlock := lastErr.(*interp.DeadlockError); !isDeadlock {
				return lastErr
			}
		}
		if res == nil {
			return fmt.Errorf("run: no completing op-granular schedule in %d tries: %w", *tries, lastErr)
		}
	} else {
		res, err = interp.RunAvoidingDeadlock(prog, *tries, *seed)
		if err != nil {
			return err
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := traceio.SaveExecution(w, res.X); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %s in %d steps\n", res.X, res.Steps)
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	rel := fs.String("rel", "MHB", "relation: MHB CHB MCW CCW MOW COW")
	la := fs.String("a", "", "label of event a")
	lb := fs.String("b", "", "label of event b")
	all := fs.Bool("all", false, "print the full relation matrix")
	dot := fs.Bool("dot", false, "with -all: emit the relation's Hasse diagram as Graphviz DOT")
	witness := fs.Bool("witness", false, "with -a/-b: print the demonstrating schedule (could-witness or must-counterexample)")
	ignoreData := fs.Bool("ignore-data", false, "drop shared-data-dependence constraints (Section 5.3 feasibility)")
	budget := fs.Int64("budget", 0, "search node budget per query (0 = unlimited)")
	ckptFile := fs.String("checkpoint", "", "with -all: when the analysis is interrupted (budget exhaustion or Ctrl-C), write a resumable checkpoint to this file")
	resumeFile := fs.String("resume", "", "with -all: resume an interrupted analysis from a checkpoint file (budget counts cumulatively across attempts)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze: want exactly one trace file")
	}
	x, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	kind, err := core.ParseRelKind(*rel)
	if err != nil {
		return err
	}
	copts := core.Options{IgnoreData: *ignoreData, MaxNodes: *budget}
	if *all {
		// Full matrices go through the tiered planner: polynomial
		// pre-solvers decide what they can, then one shared exact
		// exploration settles the residue. Output is deterministic: the
		// matrix is a fixed grid and the provenance rows follow the
		// relation's sorted pair order.
		mopts := core.MatrixOpts{Budget: *budget}
		if *resumeFile != "" {
			b, err := os.ReadFile(*resumeFile)
			if err != nil {
				return err
			}
			ckpt, err := core.DecodeCheckpointString(strings.TrimSpace(string(b)))
			if err != nil {
				return err
			}
			mopts.Resume = ckpt
		}
		// The analysis is anytime: Ctrl-C (or -budget exhaustion) stops
		// it with every verdict decided so far plus a checkpoint.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopSignals()
		res, err := plan.Analyze(ctx, x, []core.RelKind{kind}, copts, mopts)
		if err != nil {
			return err
		}
		m := res.Matrix
		r := res.Relations[kind]
		if *dot && m.Complete {
			fmt.Print(r.DOT(x, true))
			return nil
		}
		fmt.Print(r.FormatMatrix(x))
		if !m.Complete {
			und := m.Undecided[kind]
			fmt.Printf("PARTIAL analysis (stopped: %s): %d/%d pairs decided, %d pairs open for %s, %d states expanded\n",
				causeName(m.Cause), m.DecidedPairs(), m.TotalPairs(), len(und.Pairs()), kind, m.Expanded)
			fmt.Println("(matrix shows proven-true pairs; absent pairs are proven false OR still open)")
			if *ckptFile != "" {
				enc, err := m.Checkpoint.EncodeString()
				if err != nil {
					return err
				}
				if err := os.WriteFile(*ckptFile, []byte(enc+"\n"), 0o644); err != nil {
					return err
				}
				fmt.Printf("checkpoint written to %s; continue with: eventorder analyze -all -resume %s [-budget N] %s\n",
					*ckptFile, *ckptFile, fs.Arg(0))
			} else {
				fmt.Println("(rerun with -checkpoint FILE to make interrupted work resumable)")
			}
			return nil
		}
		if res.Plan != nil {
			// Provenance: which tier of the cascade decided each related
			// pair (static / observed / dag, or exact for pairs only the
			// full search could settle).
			fmt.Println("provenance (tier that decided each related pair):")
			for _, p := range r.Pairs() {
				fmt.Printf("  %s → %s\t%s\n", x.EventName(p[0]), x.EventName(p[1]), res.Plan.DecidedTier(p[0], p[1]))
			}
			var parts []string
			poly := 0
			for _, ts := range res.Plan.Tiers {
				poly += ts.PairsDecided
				parts = append(parts, fmt.Sprintf("%s %d", ts.Tier, ts.PairsDecided))
			}
			fmt.Printf("plan: %d/%d pairs decided polynomially (%s); exact residue %d\n",
				poly, res.Plan.TotalPairs, strings.Join(parts, ", "), res.Plan.Residue)
		}
		fmt.Printf("search: %d nodes, %d memo hits\n", res.Stats.Nodes, res.Stats.MemoHits)
		return nil
	}
	a, err := core.New(x, copts)
	if err != nil {
		return err
	}
	if *la == "" || *lb == "" {
		return fmt.Errorf("analyze: need -a and -b labels (or -all)")
	}
	ea, ok := x.EventByLabel(*la)
	if !ok {
		return fmt.Errorf("no event labeled %q (have %v)", *la, x.Labels())
	}
	eb, ok := x.EventByLabel(*lb)
	if !ok {
		return fmt.Errorf("no event labeled %q (have %v)", *lb, x.Labels())
	}
	if *witness {
		w, err := a.WitnessSchedule(context.Background(), kind, ea.ID, eb.ID)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s %s: %v\n", *la, kind, *lb, w.Holds)
		if w.Steps != nil {
			what := "witness"
			if kind.MustHave() {
				what = "counterexample"
			}
			fmt.Printf("%s schedule:\n", what)
			for _, line := range core.FormatSteps(x, w.Steps) {
				fmt.Println("  " + line)
			}
		}
		return nil
	}
	verdict, err := a.Decide(context.Background(), kind, ea.ID, eb.ID)
	if err != nil {
		return err
	}
	fmt.Printf("%s %s %s: %v\n", *la, kind, *lb, verdict)
	st := a.Stats()
	fmt.Printf("search: %d nodes, %d memo hits\n", st.Nodes, st.MemoHits)
	return nil
}

// causeName renders an anytime interrupt cause for the terminal.
func causeName(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrBudget):
		return "budget exhausted"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "interrupted"
	}
	return err.Error()
}

func cmdRaces(args []string) error {
	fs := flag.NewFlagSet("races", flag.ExitOnError)
	budget := fs.Int64("budget", 0, "search node budget per CCW query (0 = unlimited)")
	witness := fs.Bool("witness", false, "print a reproducing interleaving for each exact race")
	first := fs.Bool("first", false, "also report the FIRST races (minimal under causal precedence)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("races: want exactly one trace file")
	}
	x, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, err := race.Detect(x, core.Options{MaxNodes: *budget})
	if err != nil {
		return err
	}
	fmt.Printf("candidates: %d conflicting pairs\n", len(rep.Candidates))
	print := func(name string, pairs []race.Pair) {
		fmt.Printf("%s: %d\n", name, len(pairs))
		for _, p := range pairs {
			fmt.Printf("  %s ∥ %s  (variable %s)\n", x.EventName(p.A), x.EventName(p.B), p.Var)
		}
	}
	print("exact races (could-have-been-concurrent)", rep.Exact)
	if *witness {
		for _, p := range rep.Exact {
			order, ok, err := race.WitnessFor(x, core.Options{MaxNodes: *budget}, p)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			fmt.Printf("  reproducing schedule for %s ∥ %s:\n   ", x.EventName(p.A), x.EventName(p.B))
			for _, id := range order {
				fmt.Printf(" %s.%s", x.Procs[x.Ops[id].Proc].Name, x.Ops[id].Stmt)
			}
			fmt.Println()
		}
	}
	if *first {
		fr, err := race.FirstRaces(x, core.Options{MaxNodes: *budget}, rep.Exact)
		if err != nil {
			return err
		}
		print("first races (start debugging here)", fr)
	}
	print("vector-clock apparent races", rep.VC)
	print("program-order apparent races", rep.PO)
	d := race.Compare(rep.Exact, rep.VC)
	fmt.Printf("vector clocks vs exact: %d true positives, %d false positives, %d false negatives\n",
		d.TruePositives, d.FalsePositives, d.FalseNegatives)
	return nil
}

func cmdTaskgraph(args []string) error {
	fs := flag.NewFlagSet("taskgraph", flag.ExitOnError)
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of a summary")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("taskgraph: want exactly one trace file")
	}
	x, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	tg, err := taskgraph.Build(x)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(tg.DOT())
		return nil
	}
	fmt.Printf("task graph: %d nodes\n", len(tg.Nodes))
	for kind, n := range tg.NumEdges() {
		fmt.Printf("  %s edges: %d\n", kind, n)
	}
	fmt.Print(tg.GuaranteedOrder().FormatMatrix(x))
	return nil
}

func cmdHMW(args []string) error {
	fs := flag.NewFlagSet("hmw", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("hmw: want exactly one trace file")
	}
	x, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := hmw.Analyze(x)
	if err != nil {
		return err
	}
	fmt.Print(res.Phase1.FormatMatrix(x))
	fmt.Print(res.Phase2.FormatMatrix(x))
	fmt.Print(res.Phase3.FormatMatrix(x))
	fmt.Printf("phase 3 fixpoint rounds: %d\n", res.Rounds)
	return nil
}

func cmdVClock(args []string) error {
	fs := flag.NewFlagSet("vclock", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("vclock: want exactly one trace file")
	}
	x, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := vclock.Compute(x)
	if err != nil {
		return err
	}
	fmt.Print(res.HB.FormatMatrix(x))
	for e := range x.Events {
		fmt.Printf("%s clock %s\n", x.EventName(model.EventID(e)), res.EventClock[e])
	}
	return nil
}

func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	maxStates := fs.Int("max-states", 1_000_000, "state budget")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("explore: want exactly one program file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		return err
	}
	res, err := interp.Explore(prog, interp.ExploreOptions{MaxStates: *maxStates})
	if err != nil {
		return err
	}
	fmt.Printf("states explored: %d%s\n", res.States, map[bool]string{true: " (TRUNCATED)", false: ""}[res.Truncated])
	fmt.Printf("can terminate: %v (%d distinct final valuations)\n", res.CanTerminate, len(res.Terminal))
	for key := range res.Terminal {
		fmt.Printf("  final: %s\n", key)
	}
	fmt.Printf("can deadlock: %v (%d distinct deadlock states)\n", res.CanDeadlock, res.Deadlocks)
	if res.DeadlockWitness != "" {
		fmt.Printf("  witness: %s\n", res.DeadlockWitness)
	}
	if len(res.LabelsSeen) > 0 {
		fmt.Printf("labels reachable: ")
		first := true
		for l := range res.LabelsSeen {
			if !first {
				fmt.Print(", ")
			}
			first = false
			fmt.Print(l)
		}
		fmt.Println()
	}
	return nil
}

func cmdStatic(args []string) error {
	fs := flag.NewFlagSet("static", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("static: want exactly one program file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		return err
	}
	res, err := staticorder.Analyze(prog)
	if err != nil {
		return err
	}
	fmt.Printf("statement nodes: %d, fixpoint rounds: %d\n", res.NumNodes(), res.Rounds())
	pairs := res.Pairs()
	fmt.Printf("guaranteed orderings between labeled statements: %d\n", len(pairs))
	for _, p := range pairs {
		fmt.Printf("  %s ≺ %s\n", p[0], p[1])
	}
	return nil
}

func cmdSample(args []string) error {
	fs := flag.NewFlagSet("sample", flag.ExitOnError)
	n := fs.Int("n", 100, "number of sampled interleavings")
	seed := fs.Int64("seed", 1, "sampling seed")
	rel := fs.String("rel", "CHB", "relation to print")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("sample: want exactly one trace file")
	}
	x, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	kind, err := core.ParseRelKind(*rel)
	if err != nil {
		return err
	}
	a, err := core.New(x, core.Options{})
	if err != nil {
		return err
	}
	res, err := a.SampleRelations(*n, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("estimated from %d sampled feasible interleavings\n", res.Samples)
	fmt.Print(res.Relations[kind].FormatMatrix(x))
	if kind == core.RelMHB || kind == core.RelMCW || kind == core.RelMOW {
		fmt.Println("note: must-relations are OVER-approximated by sampling (a pair is only")
		fmt.Println("removed when a refuting interleaving happens to be drawn).")
	} else {
		fmt.Println("note: could-relations are UNDER-approximated by sampling (only witnessed")
		fmt.Println("pairs are reported).")
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	budget := fs.Int64("budget", 0, "search node budget per exact query (0 = unlimited)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("compare: want exactly one trace file")
	}
	x, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}

	// Exact MHB (trace-level, dependence-free so the baselines are
	// comparable) and CHB for "possible" context.
	a, err := core.New(x, core.Options{IgnoreData: true, MaxNodes: *budget})
	if err != nil {
		return err
	}
	exact, err := a.MHBRelation(context.Background())
	if err != nil {
		return err
	}

	vcRes, err := vclock.Compute(x)
	if err != nil {
		return err
	}

	// Style-specific baselines.
	var hmwRel, egpRel *model.Relation
	if res, err := hmw.Analyze(x); err == nil {
		hmwRel = res.Phase3
	}
	if tg, err := taskgraph.Build(x); err == nil {
		egpRel = tg.GuaranteedOrder()
	}

	fmt.Printf("ordered pairs (union of all analyses), %d events:\n", x.NumEvents())
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "pair\texact MHB\tVC"
	if hmwRel != nil {
		header += "\tHMW3"
	}
	if egpRel != nil {
		header += "\tEGP"
	}
	fmt.Fprintln(tw, header)
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	n := x.NumEvents()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			ea, eb := model.EventID(i), model.EventID(j)
			anyClaim := exact.Has(ea, eb) || vcRes.HB.Has(ea, eb) ||
				(hmwRel != nil && hmwRel.Has(ea, eb)) ||
				(egpRel != nil && egpRel.Has(ea, eb))
			if !anyClaim {
				continue
			}
			row := fmt.Sprintf("%s → %s\t%s\t%s",
				x.EventName(ea), x.EventName(eb),
				mark(exact.Has(ea, eb)), mark(vcRes.HB.Has(ea, eb)))
			if hmwRel != nil {
				row += "\t" + mark(hmwRel.Has(ea, eb))
			}
			if egpRel != nil {
				row += "\t" + mark(egpRel.Has(ea, eb))
			}
			fmt.Fprintln(tw, row)
		}
	}
	tw.Flush()
	fmt.Println("\nreading: 'exact MHB' quantifies over all feasible re-executions")
	fmt.Println("(dependences ignored for baseline comparability). VC reflects only the")
	fmt.Println("observed pairing (can overclaim); HMW3/EGP are safe but incomplete.")
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("show: want exactly one trace file")
	}
	x, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", x)
	for p := range x.Procs {
		fmt.Printf("process %s (%d ops)\n", x.Procs[p].Name, len(x.Procs[p].Ops))
	}
	fmt.Printf("labels: %v\n", x.Labels())
	d := model.DataDependence(x)
	fmt.Printf("shared-data dependences: %d pairs\n", d.Count())
	return nil
}
