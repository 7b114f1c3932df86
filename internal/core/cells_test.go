package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"eventorder/internal/model"
)

// TestCellsCoverTestdata pins which memo layout a Matrix pass takes: every
// testdata trace's non-symmetric pass fits cellLimit and runs over cells,
// whose occupancy Stats reports in statetab's terms, while a symmetric
// pass keeps the hashed table.
func TestCellsCoverTestdata(t *testing.T) {
	for _, name := range testdataTraces(t) {
		x := loadTrace(t, name)
		a := mustAnalyzer(t, x, Options{DisableSymm: true})
		m, err := a.Matrix(context.Background(), nil, MatrixOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if a.cells == nil {
			t.Errorf("%s: the non-symmetric pass did not run over cells", name)
			continue
		}
		st := a.Stats()
		if int64(st.CompleteMemo) <= m.Expanded || st.MemoGrows != 0 {
			t.Errorf("%s: cell memo holds %d states after %d expanded, grew %d times", name, st.CompleteMemo, m.Expanded, st.MemoGrows)
		}
		if want := int64(len(a.cells.cells)+len(a.cells.seen)) * 8; st.MemoBytes != want {
			t.Errorf("%s: MemoBytes %d, want %d (cells plus fold bitset)", name, st.MemoBytes, want)
		}
		if want := float64(st.CompleteMemo) / float64(a.cells.size); st.MemoLoad != want {
			t.Errorf("%s: MemoLoad %v, want %v", name, st.MemoLoad, want)
		}
		sym := mustAnalyzer(t, x, Options{})
		if _, err := sym.Matrix(context.Background(), nil, MatrixOpts{}); err != nil {
			t.Fatal(err)
		}
		if sym.symm && sym.cells != nil {
			t.Errorf("%s: a symmetric pass ran over cells", name)
		}
	}
}

// TestCellMemoAdoptedByPairQueries: the first completion search after a
// cell run (the one every per-pair query runs) converts the cells into the
// completion memo's table, which then holds the same states, and answers
// from it.
func TestCellMemoAdoptedByPairQueries(t *testing.T) {
	x := loadTrace(t, "pipeline.evo")
	a := mustAnalyzer(t, x, Options{})
	if _, err := a.Matrix(context.Background(), nil, MatrixOpts{}); err != nil {
		t.Fatal(err)
	}
	if a.cells == nil {
		t.Fatal("pipeline.evo's pass did not run over cells")
	}
	cells := memoEntries(a)
	a.ResetStats()
	if ok, err := a.CanComplete(); err != nil || !ok {
		t.Fatalf("CanComplete = (%v, %v)", ok, err)
	}
	if a.cells != nil {
		t.Fatal("a per-pair query left the cells unconverted")
	}
	if st := a.Stats(); st.MemoHits == 0 || st.CompleteMemo != len(cells) {
		t.Errorf("after conversion: %d memo hits, %d entries; want hits and %d entries", st.MemoHits, st.CompleteMemo, len(cells))
	}
	a.memoComplete.Range(func(key []uint64, v bool) bool {
		if want, ok := cells[fmt.Sprint(key)]; !ok || want != v {
			t.Errorf("converted memo has %v for a state the cells hold as (%v, %v)", v, want, ok)
			return false
		}
		return true
	})
}

// TestResumeRejectsOutOfRangeKeys changes one key of a burst.evo
// checkpoint at a time, each into a key no state packs to, and requires
// every resume to fail with ErrBadCheckpoint before the pass reads it. It
// does the same for fact bits and seed pairs naming an event the
// execution lacks, which the result assembly's transpose and the seed's
// rebuild would index past their rows with, and for a seed claiming a fact
// both ways.
func TestResumeRejectsOutOfRangeKeys(t *testing.T) {
	x := loadTrace(t, "burst.evo")
	a := mustAnalyzer(t, x, Options{})
	part, err := a.Matrix(context.Background(), nil, MatrixOpts{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if part.Complete || part.Checkpoint.States.Entries == 0 || part.Checkpoint.PcSeen.Entries == 0 {
		t.Fatal("budget-100 run cut no checkpoint with states and signatures")
	}
	p := -1
	for q, ids := range a.procActs {
		if len(ids)+1 < 1<<a.pcBits {
			p = q
			break
		}
	}
	if p < 0 {
		t.Fatal("no pc field has room for an out-of-range counter")
	}
	pcEnd := uint(len(a.procActs)) * a.pcBits
	stateEnd := pcEnd + uint(a.evBits) + 8
	if stateEnd >= uint(a.keyWords)*64 || pcEnd >= uint(part.Checkpoint.PcSeen.Words)*64 {
		t.Fatal("burst.evo's keys leave no bit past their fields")
	}
	outOfRange := uint64(len(a.procActs[p]) + 1)
	n := part.Checkpoint.NumEvents
	if n%64 == 0 {
		t.Fatalf("burst.evo's %d events leave no fact bit past them", n)
	}
	lastWord, pastBit := (n+63)/64-1, uint64(1)<<uint(n%64)
	for _, c := range []struct {
		name   string
		mutate func(c *Checkpoint)
	}{
		{"state counter past its process", func(c *Checkpoint) {
			writeBits(c.States.Key(0), uint(p)*a.pcBits, a.pcBits, outOfRange)
		}},
		{"state discriminator byte", func(c *Checkpoint) {
			writeBits(c.States.Key(0), pcEnd+uint(a.evBits), 8, 0x01)
		}},
		{"state bit past the fields", func(c *Checkpoint) {
			c.States.Key(0)[stateEnd>>6] |= 1 << (stateEnd & 63)
		}},
		{"signature counter past its process", func(c *Checkpoint) {
			writeBits(c.PcSeen.Key(0), uint(p)*a.pcBits, a.pcBits, outOfRange)
		}},
		{"signature bit past the counters", func(c *Checkpoint) {
			c.PcSeen.Key(0)[pcEnd>>6] |= 1 << (pcEnd & 63)
		}},
		{"order bit past the events", func(c *Checkpoint) { c.CanOrder[lastWord] |= pastBit }},
		{"overlap bit past the events", func(c *Checkpoint) {
			c.CanOverlap[(n-1)*(lastWord+1)+lastWord] |= pastBit
		}},
		{"seed pair past the events", func(c *Checkpoint) {
			c.HasSeed, c.SeedOrder = true, [][2]int32{{0, int32(n)}}
		}},
		{"negative seed pair", func(c *Checkpoint) {
			c.HasSeed, c.SeedNoOverlap = true, [][2]int32{{-1, 0}}
		}},
		{"inconsistent seed", func(c *Checkpoint) {
			c.HasSeed, c.SeedOrder, c.SeedNoOrder = true, [][2]int32{{0, 1}}, [][2]int32{{0, 1}}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ckpt := mutatedCheckpoint(t, part.Checkpoint, c.mutate)
			for _, l := range layouts {
				_, err := mustAnalyzer(t, x, Options{}).withCellLimit(l.maxCells).Matrix(context.Background(), nil,
					MatrixOpts{Resume: ckpt})
				if !errors.Is(err, ErrBadCheckpoint) {
					t.Errorf("%s: resume = %v, want ErrBadCheckpoint", l.name, err)
				}
			}
		})
	}
	// The unmutated checkpoint still resumes.
	if _, err := mustAnalyzer(t, x, Options{}).Matrix(context.Background(), nil,
		MatrixOpts{Resume: mutatedCheckpoint(t, part.Checkpoint, func(*Checkpoint) {})}); err != nil {
		t.Fatalf("unmutated checkpoint: %v", err)
	}
}

// mutatedCheckpoint round-trips ckpt through the wire codec, applies
// mutate to the decoded copy and round-trips it again, so the mutation
// reaches Matrix the way a client's resume field would.
func mutatedCheckpoint(t *testing.T, ckpt *Checkpoint, mutate func(c *Checkpoint)) *Checkpoint {
	t.Helper()
	enc, err := ckpt.EncodeString()
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeCheckpointString(enc)
	if err != nil {
		t.Fatal(err)
	}
	mutate(c)
	if enc, err = c.EncodeString(); err != nil {
		t.Fatal(err)
	}
	if c, err = DecodeCheckpointString(enc); err != nil {
		t.Fatal(err)
	}
	return c
}

// tokenRing builds procs processes that pass one token around rounds
// times through counting semaphores: process i takes t_i, runs a skip and
// hands the token on with V(t_{i+1}). Each round is five actions, so five
// processes of three rounds span 16^5 = 2^20 cells, the most a pass runs
// over cells, while the token keeps the reachable states to one path.
func tokenRing(t testing.TB, procs, rounds int) *model.Execution {
	t.Helper()
	b := model.NewBuilder()
	for i := 0; i < procs; i++ {
		init := 0
		if i == 0 {
			init = 1
		}
		b.Sem(fmt.Sprintf("t%d", i), init, model.SemCounting)
	}
	for i := 0; i < procs; i++ {
		pb := b.Proc(fmt.Sprintf("p%d", i))
		for r := 0; r < rounds; r++ {
			pb.P(fmt.Sprintf("t%d", i)).Nop().V(fmt.Sprintf("t%d", (i+1)%procs))
		}
	}
	x, err := b.BuildDeferred()
	if err != nil {
		t.Fatal(err)
	}
	if err := Schedule(x, Options{}); err != nil {
		t.Fatal(err)
	}
	return x
}

// TestTokenRingFillsCellLimit pins the worst case BenchmarkMatrixLayouts
// times: the token ring's cell count is exactly cellLimit, so it runs over
// cells, and only 75 of its states are expanded.
func TestTokenRingFillsCellLimit(t *testing.T) {
	a := mustAnalyzer(t, tokenRing(t, 5, 3), Options{DisableSymm: true})
	m, err := a.Matrix(context.Background(), nil, MatrixOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a.cells == nil || a.cells.size != cellLimit {
		t.Fatalf("token ring ran over cells=%v", a.cells != nil)
	}
	if m.Expanded != 75 {
		t.Errorf("token ring expanded %d states, want 75", m.Expanded)
	}
}

// BenchmarkMatrixLayouts times core.New plus a Matrix of all six relations
// on each memo layout: testdata traces whose non-symmetric passes span
// 25 to 390,625 cells, and the token ring, whose 2^20 cells hold 76
// reachable states (the most cells a pass zeroes for the fewest states).
func BenchmarkMatrixLayouts(b *testing.B) {
	inputs := []struct {
		name string
		x    *model.Execution
	}{{"tokenring5", tokenRing(b, 5, 3)}}
	for _, name := range []string{"handshake.evo", "figure1.evo", "pipeline.evo", "burst.evo"} {
		inputs = append(inputs, struct {
			name string
			x    *model.Execution
		}{name, loadTrace(b, name)})
	}
	for _, in := range inputs {
		for _, l := range layouts {
			b.Run(in.name+"/"+l.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					a, err := New(in.x, Options{DisableSymm: true})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := a.withCellLimit(l.maxCells).Matrix(context.Background(), nil, MatrixOpts{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
