package oracle

import (
	"math/rand"
	"testing"

	"eventorder/internal/gen"
	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
)

// executionFromBytes turns fuzz input into an execution two ways: bytes
// that parse as mini-language source are executed (bounded steps, a few
// schedule retries); anything else seeds the random execution generator.
// Returns nil when no completable execution results — not a finding.
func executionFromBytes(data []byte) *model.Execution {
	if len(data) > 2048 {
		return nil
	}
	if prog, err := lang.Parse(string(data)); err == nil {
		for try := int64(0); try < 8; try++ {
			res, err := interp.Run(prog, interp.Options{Sched: interp.NewRandom(try), MaxSteps: 2000})
			if err == nil {
				return res.X
			}
		}
		return nil
	}
	var seed int64
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	x, err := gen.Random(rng, gen.RandomOptions{
		Procs: 2 + rng.Intn(2), OpsPerProc: 3, Sems: 1, Events: 1, Vars: 2, SemInit: 1, MaxTries: 8,
	})
	if err != nil {
		return nil
	}
	return x
}

// FuzzEngineAgreement feeds arbitrary bytes through executionFromBytes and
// requires every engine to agree on the result, and, through Check's
// certificate axis, a certified execution's plan to decide every pair with
// the matrices brute force gives. Seed corpus lives in
// testdata/fuzz/FuzzEngineAgreement.
func FuzzEngineAgreement(f *testing.F) {
	f.Add([]byte("sem s = 1\nvar d\nproc a { P(s)\nd := d + 1\nV(s) }\nproc b { V(s)\nP(s) }\n"))
	f.Add([]byte("event go\nproc a { post(go) }\nproc b { wait(go)\nclear(go) }\n"))
	f.Add([]byte{0x01, 0x7f, 0x33})
	f.Fuzz(func(t *testing.T, data []byte) {
		x := executionFromBytes(data)
		if x == nil {
			return
		}
		if len(x.Events) > 12 || len(x.Ops) > 48 {
			return // keep per-input cost bounded; big inputs add no oracle power
		}
		if err := Check(x, Config{BruteLimit: 20_000, MaxWitnessEvents: 10}); err != nil {
			t.Fatal(err)
		}
	})
}
