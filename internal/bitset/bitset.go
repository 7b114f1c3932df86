// Package bitset provides a dense, fixed-capacity bit set used throughout
// the event-ordering library for relation matrices, transitive closures,
// and explorer state fingerprints.
//
// The zero value of Set is an empty set of capacity zero; most callers
// construct sets with New so that capacity checks are explicit. All
// operations that combine two sets require equal word lengths, which New
// guarantees for sets created with the same size.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over the universe [0, n) fixed at creation time.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set over the universe [0, n).
// It panics if n is negative.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewRows returns count empty sets over the universe [0, n), the rows of
// a matrix, carved from one backing array of words: two allocations for
// the whole matrix instead of two per row. Each row's words are capped at
// its own length, so no row reaches into the next.
// It panics if count or n is negative.
func NewRows(count, n int) []Set {
	if count < 0 || n < 0 {
		panic("bitset: negative size")
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*w)
	rows := make([]Set, count)
	for i := range rows {
		rows[i] = Set{n: n, words: words[i*w : (i+1)*w : (i+1)*w]}
	}
	return rows
}

// Len returns the size of the universe (not the number of set bits).
func (s *Set) Len() int { return s.n }

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Flip toggles bit i.
func (s *Set) Flip(i int) {
	s.check(i)
	s.words[i/wordBits] ^= 1 << uint(i%wordBits)
}

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Reset clears every bit, keeping the capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit in [0, n).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits beyond n in the last word so that Count, Equal and
// Hash remain canonical.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(s.n%wordBits)) - 1
	}
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of t. The sets must have the same
// universe size.
func (s *Set) Copy(t *Set) {
	s.mustMatch(t)
	copy(s.words, t.words)
}

func (s *Set) mustMatch(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: size mismatch %d vs %d", s.n, t.n))
	}
}

// Or sets s to s ∪ t and reports whether s changed.
func (s *Set) Or(t *Set) bool {
	s.mustMatch(t)
	changed := false
	for i, w := range t.words {
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// And sets s to s ∩ t.
func (s *Set) And(t *Set) {
	s.mustMatch(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// AndNot sets s to s \ t.
func (s *Set) AndNot(t *Set) {
	s.mustMatch(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Xor sets s to the symmetric difference of s and t.
func (s *Set) Xor(t *Set) {
	s.mustMatch(t)
	for i, w := range t.words {
		s.words[i] ^= w
	}
}

// Intersects reports whether s ∩ t is nonempty.
func (s *Set) Intersects(t *Set) bool {
	s.mustMatch(t)
	for i, w := range t.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every bit of s is also set in t.
func (s *Set) SubsetOf(t *Set) bool {
	s.mustMatch(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same bits.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Next returns the index of the first set bit at or after i, or -1 if none.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// ForEach calls f for every set bit in increasing order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &^= 1 << uint(b)
		}
	}
}

// Slice returns the indices of all set bits in increasing order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Hash returns an FNV-1a style fingerprint of the set contents, suitable for
// memoization keys. Sets with equal contents hash equally.
func (s *Set) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range s.words {
		for i := 0; i < 8; i++ {
			h ^= (w >> uint(8*i)) & 0xff
			h *= prime
		}
	}
	return h
}

// String renders the set as a sorted list of indices, e.g. "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// Words exposes the raw backing words (read-only by convention); used by
// explorer state encoding.
func (s *Set) Words() []uint64 { return s.words }
