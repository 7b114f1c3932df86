package core

import (
	"context"
	"errors"
	"testing"

	"eventorder/internal/model"
)

// countCtx is a context whose Err flips to Canceled after limit calls —
// deterministic mid-exploration cancellation without timers.
type countCtx struct {
	context.Context
	calls int64
	limit int64
}

func (c *countCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestCancelMidBatchNoPartialVerdicts cancels a batch Matrix sweep
// mid-exploration and asserts the interrupted run yields a sound partial —
// every verdict it decided matches the full analysis — while caching
// nothing: the persistent completion memo stays empty, and a follow-up
// Matrix on the same analyzer is bit-identical to a fresh one.
func TestCancelMidBatchNoPartialVerdicts(t *testing.T) {
	x := loadTrace(t, "barrier.evo")
	a := mustAnalyzer(t, x, Options{})
	cctx := &countCtx{Context: context.Background(), limit: 2}
	partial, err := a.Matrix(cctx, nil, MatrixOpts{})
	if err != nil {
		t.Fatalf("Matrix under canceled ctx = %v, want partial result", err)
	}
	if partial.Complete {
		t.Fatal("canceled sweep claims a complete matrix")
	}
	if !errors.Is(partial.Cause, context.Canceled) {
		t.Fatalf("cause = %v, want context.Canceled", partial.Cause)
	}
	if n := a.Stats().CompleteMemo; n != 0 {
		t.Errorf("canceled batch cached %d completion verdicts, want 0", n)
	}
	got, err := a.Matrix(context.Background(), nil, MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil, MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := model.EventID(len(x.Events))
	for _, kind := range AllRelKinds {
		if !got.Relations[kind].Equal(want.Relations[kind]) {
			t.Errorf("%s after canceled sweep differs from fresh analyzer", kind)
		}
		// Partial soundness: every verdict the interrupted run decided
		// must agree with the complete analysis.
		for ea := model.EventID(0); ea < n; ea++ {
			for eb := model.EventID(0); eb < n; eb++ {
				if ea == eb {
					continue
				}
				v := partial.Verdict(kind, ea, eb)
				if v == VerdictUnknown {
					continue
				}
				if v.Holds() != want.Relations[kind].Has(ea, eb) {
					t.Errorf("partial %s(%d,%d)=%s contradicts full analysis", kind, ea, eb, v)
				}
			}
		}
	}
}

// TestCancelMidDecideNoPartialVerdicts cancels per-pair searches
// mid-exploration and asserts later queries on the same analyzer agree
// with a fresh one — in-flight (incomplete) subtree verdicts must not have
// been memoized on the unwind.
func TestCancelMidDecideNoPartialVerdicts(t *testing.T) {
	x := loadTrace(t, "barrier.evo")
	a := mustAnalyzer(t, x, Options{})
	canceled := 0
	n := model.EventID(len(x.Events))
	for ea := model.EventID(0); ea < n; ea++ {
		for eb := model.EventID(0); eb < n; eb++ {
			if ea == eb {
				continue
			}
			// limit 1: the entry check passes, the first in-query poll
			// (every 256 cumulative nodes) cancels. Queries are small, so
			// only those crossing a poll boundary cancel — some do.
			cctx := &countCtx{Context: context.Background(), limit: 1}
			if _, err := a.Decide(cctx, RelCCW, ea, eb); errors.Is(err, context.Canceled) {
				canceled++
			}
		}
	}
	if canceled == 0 {
		t.Fatal("no query was canceled; cancellation path untested")
	}
	got, err := a.AllRelations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mustAnalyzer(t, x, Options{}).AllRelations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllRelKinds {
		if !got[kind].Equal(want[kind]) {
			t.Errorf("%s after canceled queries differs from fresh analyzer", kind)
		}
	}
}
