package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		s := New(n)
		if s.Len() != n {
			t.Errorf("Len() = %d, want %d", s.Len(), n)
		}
		if s.Count() != 0 {
			t.Errorf("Count() = %d, want 0", s.Count())
		}
		if !s.Empty() {
			t.Errorf("Empty() = false for new set of size %d", n)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetHasClear(t *testing.T) {
	s := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		s.Set(i)
	}
	for _, i := range idx {
		if !s.Has(i) {
			t.Errorf("Has(%d) = false after Set", i)
		}
	}
	if s.Count() != len(idx) {
		t.Errorf("Count() = %d, want %d", s.Count(), len(idx))
	}
	for _, i := range idx {
		s.Clear(i)
		if s.Has(i) {
			t.Errorf("Has(%d) = true after Clear", i)
		}
	}
	if !s.Empty() {
		t.Error("set not empty after clearing all bits")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", i)
				}
			}()
			s.Set(i)
		}()
	}
}

func TestFlip(t *testing.T) {
	s := New(70)
	s.Flip(69)
	if !s.Has(69) {
		t.Error("Flip did not set bit")
	}
	s.Flip(69)
	if s.Has(69) {
		t.Error("Flip did not clear bit")
	}
}

func TestFillAndReset(t *testing.T) {
	s := New(67)
	s.Fill()
	if s.Count() != 67 {
		t.Errorf("after Fill, Count() = %d, want 67", s.Count())
	}
	s.Reset()
	if !s.Empty() {
		t.Error("after Reset, set not empty")
	}
}

func TestFillCanonical(t *testing.T) {
	// Fill must not set bits beyond n, otherwise Equal/Hash break.
	a := New(67)
	a.Fill()
	b := New(67)
	for i := 0; i < 67; i++ {
		b.Set(i)
	}
	if !a.Equal(b) {
		t.Error("Fill() not equal to setting all bits individually")
	}
	if a.Hash() != b.Hash() {
		t.Error("Hash mismatch for equal sets")
	}
}

func TestCloneCopyIndependence(t *testing.T) {
	s := New(100)
	s.Set(42)
	c := s.Clone()
	c.Set(43)
	if s.Has(43) {
		t.Error("Clone shares storage with original")
	}
	d := New(100)
	d.Copy(s)
	if !d.Has(42) || d.Count() != 1 {
		t.Error("Copy did not reproduce contents")
	}
}

func TestBooleanOps(t *testing.T) {
	a := New(128)
	b := New(128)
	a.Set(1)
	a.Set(64)
	b.Set(64)
	b.Set(127)

	or := a.Clone()
	if !or.Or(b) {
		t.Error("Or reported no change")
	}
	if !or.Has(1) || !or.Has(64) || !or.Has(127) || or.Count() != 3 {
		t.Errorf("Or wrong: %v", or)
	}
	if or.Or(b) {
		t.Error("second Or reported change")
	}

	and := a.Clone()
	and.And(b)
	if and.Count() != 1 || !and.Has(64) {
		t.Errorf("And wrong: %v", and)
	}

	diff := a.Clone()
	diff.AndNot(b)
	if diff.Count() != 1 || !diff.Has(1) {
		t.Errorf("AndNot wrong: %v", diff)
	}

	xor := a.Clone()
	xor.Xor(b)
	if xor.Count() != 2 || !xor.Has(1) || !xor.Has(127) {
		t.Errorf("Xor wrong: %v", xor)
	}
}

func TestIntersectsSubset(t *testing.T) {
	a := New(64)
	b := New(64)
	a.Set(3)
	if a.Intersects(b) {
		t.Error("Intersects with empty set")
	}
	b.Set(3)
	b.Set(5)
	if !a.Intersects(b) {
		t.Error("Intersects missed common bit")
	}
	if !a.SubsetOf(b) {
		t.Error("SubsetOf false for subset")
	}
	if b.SubsetOf(a) {
		t.Error("SubsetOf true for superset")
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	a := New(10)
	b := New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched sizes did not panic")
		}
	}()
	a.Or(b)
}

func TestNext(t *testing.T) {
	s := New(200)
	for _, i := range []int{5, 63, 64, 199} {
		s.Set(i)
	}
	cases := []struct{ from, want int }{
		{-5, 5}, {0, 5}, {5, 5}, {6, 63}, {63, 63}, {64, 64}, {65, 199}, {199, 199}, {200, -1},
	}
	for _, c := range cases {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if New(0).Next(0) != -1 {
		t.Error("Next on empty universe should be -1")
	}
}

func TestForEachSliceOrder(t *testing.T) {
	s := New(300)
	want := []int{0, 2, 64, 128, 255, 299}
	for _, i := range want {
		s.Set(i)
	}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Slice[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestString(t *testing.T) {
	s := New(10)
	if s.String() != "{}" {
		t.Errorf("empty String() = %q", s.String())
	}
	s.Set(1)
	s.Set(9)
	if s.String() != "{1, 9}" {
		t.Errorf("String() = %q, want {1, 9}", s.String())
	}
}

func TestHashEqualSets(t *testing.T) {
	a := New(500)
	b := New(500)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		k := rng.Intn(500)
		a.Set(k)
		b.Set(k)
	}
	if a.Hash() != b.Hash() {
		t.Error("equal sets hash differently")
	}
	b.Flip(0)
	if a.Hash() == b.Hash() {
		t.Error("different sets hash equally (possible but suspicious for this seed)")
	}
}

// Property: Or is commutative and idempotent, De Morgan-ish identities hold.
func TestQuickProperties(t *testing.T) {
	const n = 192
	mk := func(bits []uint16) *Set {
		s := New(n)
		for _, b := range bits {
			s.Set(int(b) % n)
		}
		return s
	}
	// union commutes
	if err := quick.Check(func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		ab := a.Clone()
		ab.Or(b)
		ba := b.Clone()
		ba.Or(a)
		return ab.Equal(ba)
	}, nil); err != nil {
		t.Error(err)
	}
	// intersection is subset of both
	if err := quick.Check(func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		i := a.Clone()
		i.And(b)
		return i.SubsetOf(a) && i.SubsetOf(b)
	}, nil); err != nil {
		t.Error(err)
	}
	// a = (a∩b) ∪ (a\b)
	if err := quick.Check(func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		i := a.Clone()
		i.And(b)
		d := a.Clone()
		d.AndNot(b)
		i.Or(d)
		return i.Equal(a)
	}, nil); err != nil {
		t.Error(err)
	}
	// count consistency with Slice
	if err := quick.Check(func(xs []uint16) bool {
		a := mk(xs)
		return a.Count() == len(a.Slice())
	}, nil); err != nil {
		t.Error(err)
	}
	// xor twice restores
	if err := quick.Check(func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		c := a.Clone()
		c.Xor(b)
		c.Xor(b)
		return c.Equal(a)
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestNewRowsIndependent: rows carved from one backing array behave as
// separately allocated sets — filling, growing through Words or cloning
// one row never shows in another — and cost two allocations in all.
func TestNewRowsIndependent(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		rows := NewRows(4, n)
		if len(rows) != 4 {
			t.Fatalf("n=%d: %d rows, want 4", n, len(rows))
		}
		rows[1].Fill()
		if n > 0 {
			rows[2].Set(n - 1)
		}
		for i := range rows {
			want := map[int]int{1: n, 2: min(n, 1)}[i]
			if rows[i].Len() != n || rows[i].Count() != want {
				t.Errorf("n=%d: row %d has Len %d Count %d, want %d and %d", n, i, rows[i].Len(), rows[i].Count(), n, want)
			}
		}
		w := rows[0].Words()
		if cap(w) != len(w) {
			t.Errorf("n=%d: row 0's words have capacity %d past length %d", n, cap(w), len(w))
		}
		c := rows[1].Clone()
		c.Reset()
		if rows[1].Count() != n {
			t.Errorf("n=%d: resetting a clone cleared its row", n)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { NewRows(50, 50) }); allocs != 2 {
		t.Errorf("NewRows made %v allocations, want 2", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewRows(-1, 1) did not panic")
		}
	}()
	NewRows(-1, 1)
}
