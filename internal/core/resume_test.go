package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"eventorder/internal/model"
	"eventorder/internal/statetab"
)

// resumeToCompletion drives an interrupted analysis to its end: starting
// from a first partial, it re-runs Matrix with Resume set and a budget
// large enough to finish, round-tripping every checkpoint through the
// string codec on the way (the wire path the service and CLI use).
func resumeToCompletion(t *testing.T, x *model.Execution, first *MatrixResult, opts Options, mopts MatrixOpts) *MatrixResult {
	t.Helper()
	cur := first
	for steps := 0; !cur.Complete; steps++ {
		if steps > 10_000 {
			t.Fatal("resume loop did not converge")
		}
		if cur.Checkpoint == nil {
			t.Fatal("partial result carries no checkpoint")
		}
		enc, err := cur.Checkpoint.EncodeString()
		if err != nil {
			t.Fatalf("encode checkpoint: %v", err)
		}
		ckpt, err := DecodeCheckpointString(enc)
		if err != nil {
			t.Fatalf("decode checkpoint: %v", err)
		}
		a := mustAnalyzer(t, x, opts)
		step := mopts
		step.Resume = ckpt
		cur, err = a.Matrix(context.Background(), nil, step)
		if err != nil {
			t.Fatalf("resume step %d: %v", steps, err)
		}
	}
	return cur
}

// requireResumeIdentity is the anytime tentpole's acceptance gate: for one
// trace and analyzer options (the symm on/off axis rides through opts),
// interrupt the exploration with a tiny budget, resume
// (through serialized checkpoints) in small budget increments until
// complete, and require the final matrices bit-identical to a one-shot
// run — and every intermediate partial verdict to agree with it.
//
// The pass charges a state only when it finishes, so each resume finishes
// at least one more state, and the loop may take at most the one-shot
// run's Expanded plus one steps: a resume that charged re-entered open
// states again would stall. Traces under 100 states also resume with a
// budget step of 1, one finished state per attempt. Every pass runs on
// both memo layouts.
func requireResumeIdentity(t *testing.T, tag string, x *model.Execution, opts Options) {
	t.Helper()
	for _, l := range layouts {
		oneShot, err := mustAnalyzer(t, x, opts).withCellLimit(l.maxCells).Matrix(context.Background(), nil, MatrixOpts{})
		if err != nil {
			t.Fatalf("%s %s: one-shot: %v", tag, l.name, err)
		}
		if !oneShot.Complete {
			t.Fatalf("%s %s: one-shot run incomplete", tag, l.name)
		}
		steps := []int64{1 + oneShot.Expanded/7}
		if oneShot.Expanded < 100 {
			steps = append(steps, 1)
		}
		for _, step := range steps {
			requireResumeSteps(t, fmt.Sprintf("%s %s step=%d", tag, l.name, step), x, opts, l.maxCells, oneShot, step)
		}
	}
}

// requireResumeSteps runs one pass of requireResumeIdentity: budget 1 forces
// an interrupt at the very first finished state, and each resume step adds
// step states of budget, so the run crosses many checkpoints. Every
// analyzer runs with cell limit maxCells.
func requireResumeSteps(t *testing.T, tag string, x *model.Execution, opts Options, maxCells int, oneShot *MatrixResult, step int64) {
	t.Helper()
	first, err := mustAnalyzer(t, x, opts).withCellLimit(maxCells).Matrix(context.Background(), nil,
		MatrixOpts{Budget: 1})
	if err != nil {
		t.Fatalf("%s: budget-1 run: %v", tag, err)
	}
	if first.Complete {
		t.Fatalf("%s: budget-1 run completed; interruption path untested", tag)
	}
	if !errors.Is(first.Cause, ErrBudget) {
		t.Fatalf("%s: cause = %v, want ErrBudget", tag, first.Cause)
	}

	n := model.EventID(len(x.Events))
	cur := first
	for steps := 0; !cur.Complete; steps++ {
		if int64(steps) > oneShot.Expanded+1 {
			t.Fatalf("%s: %d resume steps for %d states; the resumed pass stalls", tag, steps, oneShot.Expanded)
		}
		// Soundness at every intermediate: a decided partial verdict must
		// equal the one-shot verdict, and budgets are cumulative, so the
		// decided set never shrinks.
		for _, kind := range AllRelKinds {
			for a := model.EventID(0); a < n; a++ {
				for b := model.EventID(0); b < n; b++ {
					if a == b {
						continue
					}
					v := cur.Verdict(kind, a, b)
					if v == VerdictUnknown {
						continue
					}
					if v.Holds() != oneShot.Relations[kind].Has(a, b) {
						t.Fatalf("%s: step %d partial %s(%d,%d)=%s contradicts one-shot",
							tag, steps, kind, a, b, v)
					}
				}
			}
		}
		enc, err := cur.Checkpoint.EncodeString()
		if err != nil {
			t.Fatalf("%s: encode: %v", tag, err)
		}
		ckpt, err := DecodeCheckpointString(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", tag, err)
		}
		a := mustAnalyzer(t, x, opts).withCellLimit(maxCells)
		cur, err = a.Matrix(context.Background(), nil, MatrixOpts{
			Budget: ckpt.Expanded + step, Resume: ckpt,
		})
		if err != nil {
			t.Fatalf("%s: resume step %d: %v", tag, steps, err)
		}
	}

	for _, kind := range AllRelKinds {
		if !cur.Relations[kind].Equal(oneShot.Relations[kind]) {
			t.Errorf("%s: resumed %s differs from one-shot:\nresumed:\n%s\none-shot:\n%s",
				tag, kind, cur.Relations[kind].FormatMatrix(x), oneShot.Relations[kind].FormatMatrix(x))
		}
	}
	if cur.Checkpoint != nil || cur.Cause != nil || cur.Undecided != nil {
		t.Errorf("%s: complete result still carries partial fields", tag)
	}
	if cur.Expanded != oneShot.Expanded {
		t.Errorf("%s: resumed attempts charged %d states in total, one-shot %d", tag, cur.Expanded, oneShot.Expanded)
	}
}

// TestResumeIdentityTestdata is the CI resume-identity gate: on every
// committed example trace, with symmetry reduction on and off, an
// interrupted run resumed to completion is bit-identical to
// a one-shot run. (On traces with a trivial symmetry group both settings
// exercise the same path; the symmetric traces — barrier6, symring,
// barrier — split genuinely.)
func TestResumeIdentityTestdata(t *testing.T) {
	for _, name := range testdataTraces(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			x := loadTrace(t, name)
			for _, noSymm := range []bool{false, true} {
				tag := fmt.Sprintf("%s noSymm=%v", name, noSymm)
				requireResumeIdentity(t, tag, x, Options{DisableSymm: noSymm})
			}
		})
	}
}

// TestResumeIdentitySymmDisagree pins the symm axis across the identity
// gate's comparison itself: a symm-off resumed run must also be
// bit-identical to a symm-ON one-shot run (matrices are engine-invariant,
// not merely config-reproducible).
func TestResumeIdentitySymmDisagree(t *testing.T) {
	x := loadTrace(t, "barrier6.evo")
	symmOn, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil, MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := mustAnalyzer(t, x, Options{DisableSymm: true}).Matrix(context.Background(), nil,
		MatrixOpts{Budget: symmOn.Expanded / 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Complete {
		t.Fatal("half-budget symm-off run completed; interruption path untested")
	}
	full := resumeToCompletion(t, x, first, Options{DisableSymm: true}, MatrixOpts{})
	for _, kind := range AllRelKinds {
		if !full.Relations[kind].Equal(symmOn.Relations[kind]) {
			t.Errorf("%s: symm-off resumed differs from symm-on one-shot", kind)
		}
	}
}

// TestResumeRejectsSymmMismatch: a checkpoint cut from a symmetry-reduced
// run stores orbit-canonical keys; resuming it with symmetry disabled
// (Options.DisableSymm or MatrixOpts.DisableSymm) must fail loudly, not
// misread the frontier.
func TestResumeRejectsSymmMismatch(t *testing.T) {
	x := loadTrace(t, "barrier6.evo")
	first, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil, MatrixOpts{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if first.Complete {
		t.Fatal("budget-1 run completed")
	}
	if !first.Checkpoint.Symm {
		t.Fatal("symm-capable run checkpointed Symm=false")
	}
	// Analyzer-level disable.
	if _, err := mustAnalyzer(t, x, Options{DisableSymm: true}).Matrix(context.Background(), nil,
		MatrixOpts{Resume: first.Checkpoint}); err == nil {
		t.Error("symm-on checkpoint accepted by a DisableSymm analyzer")
	}
	// Matrix-level disable on a symm-capable analyzer.
	if _, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil,
		MatrixOpts{Resume: first.Checkpoint, DisableSymm: true}); err == nil {
		t.Error("symm-on checkpoint accepted with MatrixOpts.DisableSymm")
	}
	// The reverse direction inherits: a symm-off checkpoint resumed on a
	// symm-capable analyzer stays off and completes.
	firstOff, err := mustAnalyzer(t, x, Options{DisableSymm: true}).Matrix(context.Background(), nil, MatrixOpts{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if firstOff.Complete {
		t.Fatal("budget-1 symm-off run completed")
	}
	if firstOff.Checkpoint.Symm {
		t.Fatal("DisableSymm run checkpointed Symm=true")
	}
	full := resumeToCompletion(t, x, firstOff, Options{}, MatrixOpts{})
	oneShot, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil, MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllRelKinds {
		if !full.Relations[kind].Equal(oneShot.Relations[kind]) {
			t.Errorf("%s: symm-pinned-off resume differs from one-shot", kind)
		}
	}
}

// testdataTraces lists the committed .evo example programs.
func testdataTraces(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.evo"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no testdata traces found")
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = filepath.Base(p)
	}
	return names
}

// TestResumeIdentityPOROff: the deprecated DisablePOR knobs are ignored.
// A run with both set cuts the same checkpoint as a default run, and that
// checkpoint resumes on a default analyzer bit-identically to a one-shot
// run.
func TestResumeIdentityPOROff(t *testing.T) {
	x := loadTrace(t, "barrier.evo")
	oneShot, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil, MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	budget := oneShot.Expanded / 3
	first, err := mustAnalyzer(t, x, Options{DisablePOR: true}).Matrix(context.Background(), nil,
		MatrixOpts{Budget: budget, DisablePOR: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Complete {
		t.Fatal("third-budget run completed; nothing to resume")
	}
	plain, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil, MatrixOpts{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	got, err := first.Checkpoint.EncodeString()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Checkpoint.EncodeString()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("DisablePOR run cut a different checkpoint than a default run")
	}
	full := resumeToCompletion(t, x, first, Options{}, MatrixOpts{})
	for _, kind := range AllRelKinds {
		if !full.Relations[kind].Equal(oneShot.Relations[kind]) {
			t.Errorf("%s: resumed differs from one-shot", kind)
		}
	}
}

// TestResumeIdentityLegacyPORCheckpoint resumes a checkpoint that a build
// with sleep-set reduction cut mid-forward-sweep on burst.evo
// (testdata/burst_por_forward.ckpt, committed as EncodeString output).
// Its States carry per-state sleep masks in their aux words, and gob
// skips its POR flag. Resumed to completion on each memo layout it must be
// bit-identical to a one-shot Matrix, and the memo it hands over must
// answer per-pair queries exactly.
func TestResumeIdentityLegacyPORCheckpoint(t *testing.T) {
	x := loadTrace(t, "burst.evo")
	ckpt := loadLegacyCheckpoint(t, "burst_por_forward.ckpt")
	if ckpt.Phase != ckPhaseForward {
		t.Fatalf("legacy checkpoint phase %d, want forward", ckpt.Phase)
	}
	masks := 0
	for _, w := range ckpt.States.Aux {
		if w != 0 {
			masks++
		}
	}
	if masks == 0 {
		t.Fatal("legacy checkpoint carries no sleep masks; it no longer tests their removal")
	}
	oneShot, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil, MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layouts {
		a := mustAnalyzer(t, x, Options{}).withCellLimit(l.maxCells)
		res, err := a.Matrix(context.Background(), nil, MatrixOpts{Resume: ckpt})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("%s: unbudgeted resume stopped early: %v", l.name, res.Cause)
		}
		if (a.cells != nil) != (l.maxCells > 0) {
			t.Fatalf("%s: resume handed over cells=%v", l.name, a.cells != nil)
		}
		warm, err := a.AllRelations(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range AllRelKinds {
			if !res.Relations[kind].Equal(oneShot.Relations[kind]) {
				t.Errorf("%s: %s: resumed legacy checkpoint differs from one-shot", l.name, kind)
			}
			if !warm[kind].Equal(oneShot.Relations[kind]) {
				t.Errorf("%s: %s: per-pair after the legacy resume differs from one-shot", l.name, kind)
			}
		}
	}
}

// loadLegacyCheckpoint decodes a committed checkpoint fixture from
// testdata.
func loadLegacyCheckpoint(t *testing.T, name string) *Checkpoint {
	t.Helper()
	enc, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := DecodeCheckpointString(strings.TrimSpace(string(enc)))
	if err != nil {
		t.Fatal(err)
	}
	return ckpt
}

// TestResumeIdentityLegacyBackwardCheckpoint resumes a checkpoint that a
// build with the two level sweeps cut in the middle of the backward sweep
// on burst.evo (testdata/burst_backward.ckpt, committed as EncodeString
// output): every state is interned, the levels above NextLevel are
// settled, and NextLevel itself is part done, so its entries hold both
// final true bits and unsettled false ones. Resumed to completion on each
// memo layout it must be bit-identical to a one-shot Matrix and hand over
// the same memo, entry for entry, and the memo must answer per-pair
// queries exactly.
func TestResumeIdentityLegacyBackwardCheckpoint(t *testing.T) {
	x := loadTrace(t, "burst.evo")
	ckpt := loadLegacyCheckpoint(t, "burst_backward.ckpt")
	if ckpt.Phase != ckPhaseBackward {
		t.Fatalf("legacy checkpoint phase %d, want backward", ckpt.Phase)
	}
	probe := mustAnalyzer(t, x, Options{})
	var atLevel [2]int
	for i := 0; i < ckpt.States.Entries; i++ {
		if probe.keyLevel(ckpt.States.Key(i)) == ckpt.NextLevel {
			if ckpt.States.Val(i) {
				atLevel[1]++
			} else {
				atLevel[0]++
			}
		}
	}
	if atLevel[0] == 0 || atLevel[1] == 0 {
		t.Fatalf("level %d holds %d false and %d true entries; the cut is not mid-level", ckpt.NextLevel, atLevel[0], atLevel[1])
	}
	oneShotA := mustAnalyzer(t, x, Options{})
	oneShot, err := oneShotA.Matrix(context.Background(), nil, MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := memoEntries(oneShotA)
	if len(want) == 0 {
		t.Fatal("one-shot run handed over an empty memo")
	}
	for _, l := range layouts {
		a := mustAnalyzer(t, x, Options{}).withCellLimit(l.maxCells)
		res, err := a.Matrix(context.Background(), nil, MatrixOpts{Resume: ckpt})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("%s: unbudgeted resume stopped early: %v", l.name, res.Cause)
		}
		if got := a.Stats().CompleteMemo; got != len(want) {
			t.Errorf("%s: resumed memo holds %d states, one-shot %d", l.name, got, len(want))
		}
		if got := memoEntries(a); !maps.Equal(got, want) {
			t.Errorf("%s: resumed memo differs from the one-shot memo", l.name)
		}
		warm, err := a.AllRelations(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range AllRelKinds {
			if !res.Relations[kind].Equal(oneShot.Relations[kind]) {
				t.Errorf("%s: %s: resumed legacy checkpoint differs from one-shot", l.name, kind)
			}
			if !warm[kind].Equal(oneShot.Relations[kind]) {
				t.Errorf("%s: %s: per-pair after the legacy resume differs from one-shot", l.name, kind)
			}
		}
	}
}

// memoEntries returns a's completion memo as a map from packed key to
// completability.
func memoEntries(a *Analyzer) map[string]bool {
	out := map[string]bool{}
	a.rangeMemo(func(key []uint64, v bool) bool {
		out[fmt.Sprint(key)] = v
		return true
	})
	return out
}

// snapshotEntries returns a checkpoint snapshot's entries as a map from
// key to value bit.
func snapshotEntries(s *statetab.Snapshot) map[string]bool {
	out := make(map[string]bool, s.Entries)
	for i := 0; i < s.Entries; i++ {
		out[fmt.Sprint(s.Key(i))] = s.Val(i)
	}
	return out
}

// TestResumeIdentityAcrossLayouts interrupts one execution at the same
// budgets on both memo layouts and requires the two checkpoints to hold the
// same finished states with the same bits, the same folded pc signatures
// and equal fact rows. Each checkpoint then resumes on the other layout to
// a matrix bit-identical to the one-shot run.
func TestResumeIdentityAcrossLayouts(t *testing.T) {
	for _, name := range []string{"burst.evo", "figure1.evo", "pipeline.evo"} {
		x := loadTrace(t, name)
		oneShot, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil, MatrixOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{1, oneShot.Expanded / 3, 2 * oneShot.Expanded / 3} {
			tag := fmt.Sprintf("%s budget=%d", name, budget)
			var cut [2]*MatrixResult
			for i, l := range layouts {
				a := mustAnalyzer(t, x, Options{}).withCellLimit(l.maxCells)
				if cut[i], err = a.Matrix(context.Background(), nil, MatrixOpts{Budget: budget}); err != nil {
					t.Fatal(err)
				}
				if cut[i].Complete {
					t.Fatalf("%s %s: run completed; nothing to compare", tag, l.name)
				}
			}
			cells, hashed := cut[0].Checkpoint, cut[1].Checkpoint
			if !maps.Equal(snapshotEntries(cells.States), snapshotEntries(hashed.States)) {
				t.Errorf("%s: the layouts' checkpoints hold different states", tag)
			}
			if !maps.Equal(snapshotEntries(cells.PcSeen), snapshotEntries(hashed.PcSeen)) {
				t.Errorf("%s: the layouts' checkpoints hold different pc signatures", tag)
			}
			if !slices.Equal(cells.CanOrder, hashed.CanOrder) || !slices.Equal(cells.CanOverlap, hashed.CanOverlap) {
				t.Errorf("%s: the layouts' checkpoints hold different fact rows", tag)
			}
			if cells.Expanded != hashed.Expanded || cells.Edges != hashed.Edges {
				t.Errorf("%s: counters cells %d/%d, hashed %d/%d", tag, cells.Expanded, cells.Edges, hashed.Expanded, hashed.Edges)
			}
			for i, l := range layouts {
				other := layouts[1-i]
				res, err := mustAnalyzer(t, x, Options{}).withCellLimit(other.maxCells).Matrix(context.Background(), nil,
					MatrixOpts{Resume: cut[i].Checkpoint})
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range AllRelKinds {
					if !res.Relations[kind].Equal(oneShot.Relations[kind]) {
						t.Errorf("%s: %s checkpoint resumed over %s: %s differs from one-shot", tag, l.name, other.name, kind)
					}
				}
			}
		}
	}
}

// TestResumeRejectsMismatchedExecution: a checkpoint carries a fingerprint
// of the execution it was cut from; resuming it against a different
// execution must fail, not silently corrupt.
func TestResumeRejectsMismatchedExecution(t *testing.T) {
	x := loadTrace(t, "barrier.evo")
	first, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil, MatrixOpts{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if first.Complete {
		t.Fatal("budget-1 run completed")
	}
	other := loadTrace(t, "pipeline.evo")
	if _, err := mustAnalyzer(t, other, Options{}).Matrix(context.Background(), nil,
		MatrixOpts{Resume: first.Checkpoint}); err == nil {
		t.Error("checkpoint accepted against a different execution")
	}
	// Seed and Resume are mutually exclusive.
	if _, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil,
		MatrixOpts{Resume: first.Checkpoint, Seed: &FactSeed{}}); err == nil {
		t.Error("Seed+Resume accepted")
	}
}

// TestCheckpointCodecRejectsGarbage pins the decode error paths.
func TestCheckpointCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeCheckpointString("not base64!!!"); err == nil {
		t.Error("garbage base64 accepted")
	}
	if _, err := DecodeCheckpointString("aGVsbG8gd29ybGQ="); err == nil {
		t.Error("non-gob payload accepted")
	}
}

// TestNormalize is the satellite's table test: MatrixOpts.Normalize is the
// one place defaults and clamps are applied, shared by the service, the
// CLIs, and bench. The deprecated Workers knob passes through untouched,
// whatever MaxWorkers says.
func TestNormalize(t *testing.T) {
	cases := []struct {
		name       string
		in         MatrixOpts
		lim        MatrixLimits
		wantBudget int64
		wantTiers  int
	}{
		{"zero value", MatrixOpts{}, MatrixLimits{}, 0, 0},
		{"negative workers", MatrixOpts{Workers: -3}, MatrixLimits{}, 0, 0},
		{"workers over cap ignored", MatrixOpts{Workers: 1000}, MatrixLimits{MaxWorkers: 4}, 0, 0},
		{"zero workers with cap ignored", MatrixOpts{}, MatrixLimits{MaxWorkers: 1}, 0, 0},
		{"workers under cap kept", MatrixOpts{Workers: 2}, MatrixLimits{MaxWorkers: 8}, 0, 0},
		{"negative budget to unlimited", MatrixOpts{Budget: -9}, MatrixLimits{}, 0, 0},
		{"unlimited budget capped", MatrixOpts{}, MatrixLimits{MaxBudget: 500}, 500, 0},
		{"negative budget capped", MatrixOpts{Budget: -1}, MatrixLimits{MaxBudget: 500}, 500, 0},
		{"budget over cap clamped", MatrixOpts{Budget: 900}, MatrixLimits{MaxBudget: 500}, 500, 0},
		{"budget under cap kept", MatrixOpts{Budget: 100}, MatrixLimits{MaxBudget: 500}, 100, 0},
		{"tiers below -1", MatrixOpts{Tiers: -7}, MatrixLimits{}, 0, -1},
		{"tiers -1 kept", MatrixOpts{Tiers: -1}, MatrixLimits{}, 0, -1},
		{"tiers in range kept", MatrixOpts{Tiers: 2}, MatrixLimits{}, 0, 2},
		{"tiers at max kept", MatrixOpts{Tiers: MaxPlanTiers}, MatrixLimits{}, 0, MaxPlanTiers},
		{"tiers above max to full cascade", MatrixOpts{Tiers: MaxPlanTiers + 1}, MatrixLimits{}, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.in.Normalize(c.lim)
			if got.Workers != c.in.Workers {
				t.Errorf("Workers = %d, want %d passed through", got.Workers, c.in.Workers)
			}
			if got.Budget != c.wantBudget {
				t.Errorf("Budget = %d, want %d", got.Budget, c.wantBudget)
			}
			if got.Tiers != c.wantTiers {
				t.Errorf("Tiers = %d, want %d", got.Tiers, c.wantTiers)
			}
		})
	}

	// Seed and Resume pass through untouched, and Normalize is idempotent.
	seed := &FactSeed{}
	in := MatrixOpts{Seed: seed, Budget: 7, Tiers: 1}
	once := in.Normalize(MatrixLimits{MaxBudget: 100})
	if once.Seed != seed {
		t.Error("Normalize dropped the seed")
	}
	// MatrixOpts holds a func field (OnPhase), so compare knob by knob.
	twice := once.Normalize(MatrixLimits{MaxBudget: 100})
	if twice.Budget != once.Budget || twice.Tiers != once.Tiers || twice.Seed != once.Seed || twice.Resume != once.Resume {
		t.Errorf("Normalize not idempotent: %+v vs %+v", twice, once)
	}
}
