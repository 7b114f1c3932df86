// Package gen builds workload executions for tests, benchmarks, and the
// experiment harness: structured parallel-programming idioms (mutual
// exclusion, producer/consumer, pipelines, barriers) and seeded random
// executions. Every generator returns a complete, validated execution with
// an observed order installed.
package gen

import (
	"fmt"
	"math/rand"

	"eventorder/internal/core"
	"eventorder/internal/model"
)

// Mutex builds nProcs processes, each entering a one-semaphore critical
// section crits times and touching a shared variable inside it. Critical-
// section events are labeled "csP_K".
func Mutex(nProcs, crits int) (*model.Execution, error) {
	b := model.NewBuilder()
	b.Sem("m", 1, model.SemCounting)
	for p := 0; p < nProcs; p++ {
		pb := b.Proc(fmt.Sprintf("p%d", p))
		for k := 0; k < crits; k++ {
			pb.P("m")
			pb.Label(fmt.Sprintf("cs%d_%d", p, k)).Write("shared")
			pb.V("m")
		}
	}
	return b.Build()
}

// ProducerConsumer builds producers signalling items through a counting
// semaphore to consumers; each item deposit writes a shared slot variable.
// Producer events are labeled "prodP_K", consumer events "consP_K".
func ProducerConsumer(producers, consumers, itemsPerProducer int) (*model.Execution, error) {
	if producers*itemsPerProducer%consumers != 0 {
		return nil, fmt.Errorf("gen: items (%d) must divide evenly among consumers (%d)",
			producers*itemsPerProducer, consumers)
	}
	perConsumer := producers * itemsPerProducer / consumers
	b := model.NewBuilder()
	b.Sem("items", 0, model.SemCounting)
	for p := 0; p < producers; p++ {
		pb := b.Proc(fmt.Sprintf("producer%d", p))
		for k := 0; k < itemsPerProducer; k++ {
			pb.Label(fmt.Sprintf("prod%d_%d", p, k)).Write(fmt.Sprintf("slot%d", p))
			pb.V("items")
		}
	}
	for c := 0; c < consumers; c++ {
		cb := b.Proc(fmt.Sprintf("consumer%d", c))
		for k := 0; k < perConsumer; k++ {
			cb.P("items")
			cb.Label(fmt.Sprintf("cons%d_%d", c, k)).Nop()
		}
	}
	return b.Build()
}

// Pipeline builds an event-variable pipeline: stage i posts "stageI" after
// waiting for "stageI-1". Stage work events are labeled "workI".
func Pipeline(stages int) (*model.Execution, error) {
	if stages < 1 {
		return nil, fmt.Errorf("gen: pipeline needs ≥ 1 stage")
	}
	b := model.NewBuilder()
	for s := 0; s < stages; s++ {
		pb := b.Proc(fmt.Sprintf("stage%d", s))
		if s > 0 {
			pb.Wait(fmt.Sprintf("done%d", s-1))
		}
		pb.Label(fmt.Sprintf("work%d", s)).Write(fmt.Sprintf("buf%d", s))
		pb.Post(fmt.Sprintf("done%d", s))
	}
	return b.Build()
}

// ForkJoinTree builds a parent forking children that each do labeled work,
// then joins them all ("fan-out/fan-in").
func ForkJoinTree(children int) (*model.Execution, error) {
	b := model.NewBuilder()
	main := b.Proc("main")
	main.Label("setup").Write("input")
	kids := make([]*model.ProcBuilder, children)
	for c := 0; c < children; c++ {
		kids[c] = main.Fork(fmt.Sprintf("worker%d", c))
	}
	for c := 0; c < children; c++ {
		kids[c].Read("input")
		kids[c].Label(fmt.Sprintf("work%d", c)).Write(fmt.Sprintf("out%d", c))
	}
	for c := 0; c < children; c++ {
		main.Join(fmt.Sprintf("worker%d", c))
	}
	main.Label("collect").Nop()
	for c := 0; c < children; c++ {
		main.Read(fmt.Sprintf("out%d", c))
	}
	return b.Build()
}

// Barrier builds nProcs processes meeting at a sense-reversing-style
// barrier built from semaphores: each arrival V's "arrive", a coordinator
// P's nProcs arrivals then V's "release" nProcs times. Post-barrier events
// are labeled "afterP".
func Barrier(nProcs int) (*model.Execution, error) {
	b := model.NewBuilder()
	b.Sem("arrive", 0, model.SemCounting)
	b.Sem("release", 0, model.SemCounting)
	coord := b.Proc("coordinator")
	for i := 0; i < nProcs; i++ {
		coord.P("arrive")
	}
	for i := 0; i < nProcs; i++ {
		coord.V("release")
	}
	for p := 0; p < nProcs; p++ {
		pb := b.Proc(fmt.Sprintf("p%d", p))
		pb.Label(fmt.Sprintf("before%d", p)).Write(fmt.Sprintf("x%d", p))
		pb.V("arrive")
		pb.P("release")
		pb.Label(fmt.Sprintf("after%d", p)).Read(fmt.Sprintf("x%d", (p+1)%nProcs))
	}
	return b.Build()
}

// SingleSem builds a workload whose only synchronization is one counting
// semaphore: nGroups groups of identical processes (each P;V on the
// semaphore k times) plus one deviant process that banks tokens. Feeds the
// E9 single-semaphore specialization.
func SingleSem(groups, perGroup, critsEach, init int) (*model.Execution, error) {
	b := model.NewBuilder()
	b.Sem("s", init, model.SemCounting)
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			pb := b.Proc(fmt.Sprintf("g%d_p%d", g, i))
			for k := 0; k < critsEach; k++ {
				pb.P("s")
				pb.V("s")
			}
		}
	}
	banker := b.Proc("banker")
	banker.V("s")
	banker.P("s")
	return b.Build()
}

// ReadersWriters builds the classic readers–writers idiom with a writer
// lock and a reader-count guard simulated through semaphores: writers take
// "wlock" exclusively; each reader brackets its read between P(mutex)/
// V(mutex) pairs maintaining entry order. Reads are labeled "readI",
// writes "writeJ".
func ReadersWriters(readers, writers int) (*model.Execution, error) {
	if readers < 1 || writers < 1 {
		return nil, fmt.Errorf("gen: need ≥1 reader and writer")
	}
	b := model.NewBuilder()
	b.Sem("wlock", 1, model.SemCounting)
	b.Sem("mutex", 1, model.SemCounting)
	for w := 0; w < writers; w++ {
		pb := b.Proc(fmt.Sprintf("writer%d", w))
		pb.P("wlock")
		pb.Label(fmt.Sprintf("write%d", w)).Write("data")
		pb.V("wlock")
	}
	for r := 0; r < readers; r++ {
		pb := b.Proc(fmt.Sprintf("reader%d", r))
		// Entry section: first reader blocks writers (simplified: each
		// reader takes the write lock through the mutex-protected guard;
		// to keep the event count small this variant locks per-reader).
		pb.P("mutex")
		pb.P("wlock")
		pb.V("mutex")
		pb.Label(fmt.Sprintf("read%d", r)).Read("data")
		pb.V("wlock")
	}
	return b.Build()
}

// RandomOptions bounds the random generators.
type RandomOptions struct {
	Procs      int // number of processes (≥ 2)
	OpsPerProc int // maximum ops per process (≥ 1)
	Sems       int // number of counting semaphores
	Events     int // number of event variables
	Vars       int // number of shared variables
	SemInit    int // maximum initial semaphore value
	MaxTries   int // attempts to find a completing execution (default 64)
}

// Random builds a seeded random execution mixing the enabled features, and
// schedules it with the exhaustive scheduler; generation retries (with
// fresh structure) until a completable execution is found.
func Random(rng *rand.Rand, opts RandomOptions) (*model.Execution, error) {
	if opts.Procs < 2 {
		opts.Procs = 2
	}
	if opts.OpsPerProc < 1 {
		opts.OpsPerProc = 1
	}
	tries := opts.MaxTries
	if tries <= 0 {
		tries = 64
	}
	for t := 0; t < tries; t++ {
		b := model.NewBuilder()
		for s := 0; s < opts.Sems; s++ {
			init := 0
			if opts.SemInit > 0 {
				init = rng.Intn(opts.SemInit + 1)
			}
			b.Sem(fmt.Sprintf("s%d", s), init, model.SemCounting)
		}
		for e := 0; e < opts.Events; e++ {
			b.EventVar(fmt.Sprintf("e%d", e), false)
		}
		for p := 0; p < opts.Procs; p++ {
			pb := b.Proc(fmt.Sprintf("p%d", p))
			nops := 1 + rng.Intn(opts.OpsPerProc)
			for o := 0; o < nops; o++ {
				kindRoll := rng.Intn(6)
				switch {
				case kindRoll == 0:
					pb.Nop()
				case kindRoll == 1 && opts.Vars > 0:
					pb.Read(fmt.Sprintf("x%d", rng.Intn(opts.Vars)))
				case kindRoll == 2 && opts.Vars > 0:
					pb.Write(fmt.Sprintf("x%d", rng.Intn(opts.Vars)))
				case kindRoll == 3 && opts.Sems > 0:
					s := fmt.Sprintf("s%d", rng.Intn(opts.Sems))
					if rng.Intn(2) == 0 {
						pb.P(s)
					} else {
						pb.V(s)
					}
				case kindRoll == 4 && opts.Events > 0:
					e := fmt.Sprintf("e%d", rng.Intn(opts.Events))
					switch rng.Intn(3) {
					case 0:
						pb.Post(e)
					case 1:
						pb.Wait(e)
					default:
						pb.Clear(e)
					}
				default:
					pb.Nop()
				}
			}
		}
		x, err := b.BuildDeferred()
		if err != nil {
			continue
		}
		if err := core.Schedule(x, core.Options{MaxNodes: 2_000_000}); err != nil {
			continue
		}
		return x, nil
	}
	return nil, fmt.Errorf("gen: no completable random execution in %d tries", tries)
}

// SeededRaces builds a workload with a controllable number of real data
// races: pairs of processes write the same variable, half of them guarded
// by a mutex (no race) and half unguarded (race). Returns the execution and
// the number of planted racy pairs.
func SeededRaces(pairs int, guardedFraction float64) (*model.Execution, int, error) {
	if pairs < 1 {
		return nil, 0, fmt.Errorf("gen: need ≥ 1 pair")
	}
	guarded := int(float64(pairs) * guardedFraction)
	b := model.NewBuilder()
	b.Sem("m", 1, model.SemCounting)
	racy := 0
	for i := 0; i < pairs; i++ {
		v := fmt.Sprintf("v%d", i)
		p1 := b.Proc(fmt.Sprintf("a%d", i))
		p2 := b.Proc(fmt.Sprintf("b%d", i))
		if i < guarded {
			p1.P("m")
			p1.Label(fmt.Sprintf("wA%d", i)).Write(v)
			p1.V("m")
			p2.P("m")
			p2.Label(fmt.Sprintf("wB%d", i)).Write(v)
			p2.V("m")
		} else {
			p1.Label(fmt.Sprintf("wA%d", i)).Write(v)
			p2.Label(fmt.Sprintf("wB%d", i)).Write(v)
			racy++
		}
	}
	x, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	return x, racy, nil
}

// Corpus returns a deterministic spread of small generated executions
// covering semaphores, event variables, fork/join and shared-variable
// accesses, for tests that check a property over many trace shapes.
func Corpus() ([]*model.Execution, error) {
	var xs []*model.Execution
	var firstErr error
	add := func(x *model.Execution, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		xs = append(xs, x)
	}
	add(Mutex(2, 2))
	add(ProducerConsumer(2, 2, 2))
	add(Pipeline(3))
	add(ForkJoinTree(3))
	add(Barrier(3))
	for seed := int64(1); seed <= 4; seed++ {
		add(Random(rand.New(rand.NewSource(seed)), RandomOptions{
			Procs: 3, OpsPerProc: 4, Sems: 2, SemInit: 1, Events: 2, Vars: 2,
		}))
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return xs, nil
}
