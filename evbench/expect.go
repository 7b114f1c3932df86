package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"eventorder/internal/core"
	"eventorder/internal/model"
)

// The verdict gate. Before any timing, every base gets its expected
// relations from a path the requests do not exercise:
//
//   - brute-force enumeration of every interleaving (core.BruteRelations)
//     when the interleavings of its actions, feasible or not, number at
//     most bruteLimit (the enumeration's limit counts only complete
//     schedules, so it does not bound the work on traces where most
//     interleavings deadlock);
//   - otherwise, for matrix workloads, the per-pair engine (one Decide per
//     relation and pair, core.Analyzer.AllRelations);
//   - for exact-heavy, whose full per-pair matrices take 12–78 s per shape
//     here, the batch engine with the planner, partial-order reduction,
//     symmetry and fan-out all off, cross-checked by the per-pair engine
//     on heavySamplePairs seeded pairs;
//   - for pair and witness requests, the batch matrix.
//
// Every response is then compared with these expectations.

const (
	bruteLimit       = 20000
	heavySamplePairs = 8
)

// computeExpectations fills every base's expectations, in parallel over
// GOMAXPROCS goroutines.
func (w *workload) computeExpectations(ctx context.Context) error {
	work := make(chan *base)
	errs := make(chan error, len(w.bases))
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				if err := w.expectBase(ctx, b); err != nil {
					errs <- fmt.Errorf("verdict gate: %s: %w", b.name, err)
				}
			}
		}()
	}
feed:
	for _, b := range w.bases {
		select {
		case work <- b:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	close(errs)
	if err := ctx.Err(); err != nil {
		return err
	}
	return <-errs // nil when the channel is empty
}

func (w *workload) expectBase(ctx context.Context, b *base) error {
	var err error
	switch w.name {
	case wlCorpus:
		b.expect, b.method, err = bruteOrPerPair(ctx, b.x)
	case wlHeavy:
		b.expect, b.method, err = unreducedWithPairSample(ctx, b.x, w.seed)
	case wlPair:
		b.expect, b.method, err = batchMatrix(ctx, b.x)
	}
	if err != nil {
		return err
	}
	b.pairs = make(map[string][][2]int, len(b.expect))
	for kind, rel := range b.expect {
		b.pairs[kind.String()] = relPairs(rel)
	}
	return nil
}

func bruteOrPerPair(ctx context.Context, x *model.Execution) (map[core.RelKind]*model.Relation, string, error) {
	if interleavings(x) <= bruteLimit {
		br, err := core.BruteRelations(x, core.Options{}, bruteLimit)
		if err != nil {
			return nil, "", err
		}
		return br.Relations, "brute", nil
	}
	an, err := core.New(x, core.Options{})
	if err != nil {
		return nil, "", err
	}
	rels, err := an.AllRelations(ctx)
	return rels, "per-pair", err
}

// interleavings bounds the number of action interleavings of x, ignoring
// every synchronization and data constraint: the multinomial coefficient
// over the processes' action counts. A computation event of k operations
// is k+2 actions (begin, each access, end); a synchronization event is one.
func interleavings(x *model.Execution) float64 {
	perProc := make([]int, x.NumProcs())
	for i := range x.Events {
		e := &x.Events[i]
		if e.IsSync() {
			perProc[e.Proc]++
		} else {
			perProc[e.Proc] += len(e.Ops) + 2
		}
	}
	total := 0
	logCoef := 0.0
	for _, k := range perProc {
		total += k
		lk, _ := math.Lgamma(float64(k + 1))
		logCoef -= lk
	}
	lt, _ := math.Lgamma(float64(total + 1))
	return math.Exp(logCoef + lt)
}

func unreducedWithPairSample(ctx context.Context, x *model.Execution, seed int64) (map[core.RelKind]*model.Relation, string, error) {
	an, err := core.New(x, core.Options{DisablePOR: true, DisableSymm: true})
	if err != nil {
		return nil, "", err
	}
	m, err := an.Matrix(ctx, core.AllRelKinds, core.MatrixOpts{Workers: 1, Tiers: -1, DisablePOR: true, DisableSymm: true})
	if err != nil {
		return nil, "", err
	}
	if !m.Complete {
		return nil, "", fmt.Errorf("unreduced matrix incomplete: %v", m.Cause)
	}
	rng := newPRNG(uint64(seed), 0x73616d706c65)
	n := x.NumEvents()
	for range heavySamplePairs {
		a := model.EventID(rng.intn(n))
		b := model.EventID(rng.intn(n - 1))
		if b >= a {
			b++
		}
		pa, err := core.New(x, core.Options{})
		if err != nil {
			return nil, "", err
		}
		for _, kind := range core.AllRelKinds {
			holds, err := pa.Decide(ctx, kind, a, b)
			if err != nil {
				return nil, "", err
			}
			if holds != m.Relations[kind].Has(a, b) {
				return nil, "", fmt.Errorf("per-pair engine says %s(%d,%d)=%t, unreduced batch matrix says %t", kind, a, b, holds, !holds)
			}
		}
	}
	return m.Relations, "unreduced-batch+per-pair-sample", nil
}

func batchMatrix(ctx context.Context, x *model.Execution) (map[core.RelKind]*model.Relation, string, error) {
	an, err := core.New(x, core.Options{})
	if err != nil {
		return nil, "", err
	}
	m, err := an.Matrix(ctx, core.AllRelKinds, core.MatrixOpts{})
	if err != nil {
		return nil, "", err
	}
	if !m.Complete {
		return nil, "", fmt.Errorf("batch matrix incomplete: %v", m.Cause)
	}
	return m.Relations, "batch", nil
}

// relPairs lists rel's pairs sorted, as a MatrixResult carries them.
func relPairs(rel *model.Relation) [][2]int {
	pairs := [][2]int{}
	for _, p := range rel.Pairs() {
		pairs = append(pairs, [2]int{int(p[0]), int(p[1])})
	}
	slices.SortFunc(pairs, comparePair)
	return pairs
}

func comparePair(p, q [2]int) int {
	if p[0] != q[0] {
		return p[0] - q[0]
	}
	return p[1] - q[1]
}

// envelope is the part of a response envelope the benchmark reads.
type envelope struct {
	Cached bool `json:"cached"`
	Trace  *struct {
		Lane        string  `json:"lane"`
		QueueWaitMs float64 `json:"queueWaitMs"`
	} `json:"trace"`
	Result json.RawMessage `json:"result"`
}

// verdictResult decodes the verdict of a pair or witness result.
type verdictResult struct {
	Verdict core.Verdict `json:"verdict"`
}

// matrixResult decodes the verdicts of a matrix result.
type matrixResult struct {
	Complete  bool                `json:"complete"`
	Relations map[string][][2]int `json:"relations"`
}

var errMismatch = errors.New("verdict differs from its expectation")

// check decodes a 200 response body and compares its verdicts with r's
// expectations.
func check(r *request, body []byte) (envelope, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return env, fmt.Errorf("request %d: bad envelope: %w", r.index, err)
	}
	return env, checkResult(r, env.Result)
}

// checkResult compares a result payload with r's expectations.
func checkResult(r *request, result []byte) error {
	switch r.kind {
	case kindMatrix:
		var m matrixResult
		if err := json.Unmarshal(result, &m); err != nil {
			return fmt.Errorf("request %d: bad matrix result: %w", r.index, err)
		}
		if !m.Complete || len(m.Relations) != len(r.base.pairs) {
			return fmt.Errorf("request %d (%s): incomplete matrix: %w", r.index, r.base.name, errMismatch)
		}
		for kind, want := range r.base.pairs {
			got := m.Relations[kind]
			slices.SortFunc(got, comparePair)
			if !slices.Equal(got, want) {
				return fmt.Errorf("request %d (%s): %s: %w", r.index, r.base.name, kind, errMismatch)
			}
		}
	default:
		var v verdictResult
		if err := json.Unmarshal(result, &v); err != nil {
			return fmt.Errorf("request %d: bad %s result: %w", r.index, r.kind, err)
		}
		if want := core.VerdictOf(r.base.expect[r.rel].Has(r.a, r.b)); v.Verdict != want {
			return fmt.Errorf("request %d (%s %s %s(%d,%d)): got %s want %s: %w", r.index, r.base.name, r.kind, r.rel, r.a, r.b, v.Verdict, want, errMismatch)
		}
	}
	return nil
}
