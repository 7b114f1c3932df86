package model

import (
	"fmt"
	"sort"
	"strings"

	"eventorder/internal/bitset"
)

// Relation is a named binary relation over the events of one execution,
// stored as a dense boolean matrix (one bitset row per event).
type Relation struct {
	Name string
	n    int
	rows []bitset.Set
}

// NewRelation returns an empty relation over n events.
func NewRelation(name string, n int) *Relation {
	return &Relation{Name: name, n: n, rows: bitset.NewRows(n, n)}
}

// N returns the number of events the relation ranges over.
func (r *Relation) N() int { return r.n }

// Set records a R b.
func (r *Relation) Set(a, b EventID) { r.rows[a].Set(int(b)) }

// Unset removes a R b.
func (r *Relation) Unset(a, b EventID) { r.rows[a].Clear(int(b)) }

// Has reports whether a R b.
func (r *Relation) Has(a, b EventID) bool { return r.rows[a].Has(int(b)) }

// Row returns the bitset of successors of a (do not modify).
func (r *Relation) Row(a EventID) *bitset.Set { return &r.rows[a] }

// SetRow overwrites the successors of a with the bits of words, which must
// hold (N+63)/64 words: b becomes a successor iff bit b%64 of words[b/64]
// is set. Bits at or past N are dropped.
func (r *Relation) SetRow(a EventID, words []uint64) {
	row := r.rows[a].Words()
	if len(words) != len(row) {
		panic("model: row length mismatch")
	}
	copy(row, words)
	if rem := r.n % 64; rem != 0 {
		row[len(row)-1] &= 1<<uint(rem) - 1
	}
}

// Count returns the number of pairs in the relation.
func (r *Relation) Count() int {
	total := 0
	for i := range r.rows {
		total += r.rows[i].Count()
	}
	return total
}

// Pairs returns every (a, b) with a R b, sorted.
func (r *Relation) Pairs() [][2]EventID {
	var out [][2]EventID
	for a := 0; a < r.n; a++ {
		r.rows[a].ForEach(func(b int) {
			out = append(out, [2]EventID{EventID(a), EventID(b)})
		})
	}
	return out
}

// Clone returns a deep copy with the given name.
func (r *Relation) Clone(name string) *Relation {
	c := NewRelation(name, r.n)
	for i := range r.rows {
		c.rows[i].Copy(&r.rows[i])
	}
	return c
}

// Equal reports whether two relations contain the same pairs.
func (r *Relation) Equal(o *Relation) bool {
	if r.n != o.n {
		return false
	}
	for i := range r.rows {
		if !r.rows[i].Equal(&o.rows[i]) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every pair of r is in o.
func (r *Relation) SubsetOf(o *Relation) bool {
	if r.n != o.n {
		return false
	}
	for i := range r.rows {
		if !r.rows[i].SubsetOf(&o.rows[i]) {
			return false
		}
	}
	return true
}

// Union adds every pair of o into r.
func (r *Relation) Union(o *Relation) {
	if r.n != o.n {
		panic("model: relation size mismatch")
	}
	for i := range r.rows {
		r.rows[i].Or(&o.rows[i])
	}
}

// Intersect keeps only pairs present in both r and o.
func (r *Relation) Intersect(o *Relation) {
	if r.n != o.n {
		panic("model: relation size mismatch")
	}
	for i := range r.rows {
		r.rows[i].And(&o.rows[i])
	}
}

// Diff returns the pairs of r not present in o.
func (r *Relation) Diff(name string, o *Relation) *Relation {
	if r.n != o.n {
		panic("model: relation size mismatch")
	}
	d := r.Clone(name)
	for i := range d.rows {
		d.rows[i].AndNot(&o.rows[i])
	}
	return d
}

// Invert returns the converse relation {(b, a) : a R b}.
func (r *Relation) Invert(name string) *Relation {
	inv := NewRelation(name, r.n)
	for a := 0; a < r.n; a++ {
		r.rows[a].ForEach(func(b int) { inv.Set(EventID(b), EventID(a)) })
	}
	return inv
}

// TransitiveClose closes r under transitivity in place (Floyd–Warshall over
// bitset rows: O(n²) word operations per pivot).
func (r *Relation) TransitiveClose() {
	for k := 0; k < r.n; k++ {
		rowK := &r.rows[k]
		for i := 0; i < r.n; i++ {
			if i != k && r.rows[i].Has(k) {
				r.rows[i].Or(rowK)
			}
		}
	}
}

// IsTransitive reports whether a R b ∧ b R c ⇒ a R c.
func (r *Relation) IsTransitive() bool {
	for a := 0; a < r.n; a++ {
		ok := true
		r.rows[a].ForEach(func(b int) {
			if !r.rows[b].SubsetOf(&r.rows[a]) {
				ok = false
			}
		})
		if !ok {
			return false
		}
	}
	return true
}

// IsIrreflexive reports whether no a R a holds.
func (r *Relation) IsIrreflexive() bool {
	for a := 0; a < r.n; a++ {
		if r.rows[a].Has(a) {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether a R b ⇒ b R a.
func (r *Relation) IsSymmetric() bool {
	for a := 0; a < r.n; a++ {
		sym := true
		r.rows[a].ForEach(func(b int) {
			if !r.rows[b].Has(a) {
				sym = false
			}
		})
		if !sym {
			return false
		}
	}
	return true
}

// IsAntisymmetric reports whether a R b ∧ b R a never holds for a ≠ b.
func (r *Relation) IsAntisymmetric() bool {
	for a := 0; a < r.n; a++ {
		ok := true
		r.rows[a].ForEach(func(b int) {
			if b != a && r.rows[b].Has(a) {
				ok = false
			}
		})
		if !ok {
			return false
		}
	}
	return true
}

// String renders the relation compactly as "name{(0,1), (2,3)}".
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Name)
	b.WriteByte('{')
	first := true
	for _, p := range r.Pairs() {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "(%d,%d)", p[0], p[1])
	}
	b.WriteByte('}')
	return b.String()
}

// FormatMatrix renders the relation as a matrix with event labels on the
// axes, for small executions. Labeled events show their labels; unlabeled
// events show "eN".
func (r *Relation) FormatMatrix(x *Execution) string {
	names := make([]string, r.n)
	width := 2
	for i := 0; i < r.n; i++ {
		if x != nil && x.Events[i].Label != "" {
			names[i] = x.Events[i].Label
		} else {
			names[i] = fmt.Sprintf("e%d", i)
		}
		if len(names[i]) > width {
			width = len(names[i])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d pairs)\n", r.Name, r.Count())
	fmt.Fprintf(&b, "%*s", width+1, "")
	for j := 0; j < r.n; j++ {
		fmt.Fprintf(&b, " %*s", width, names[j])
	}
	b.WriteByte('\n')
	for i := 0; i < r.n; i++ {
		fmt.Fprintf(&b, "%*s ", width+1, names[i])
		for j := 0; j < r.n; j++ {
			mark := "."
			if r.Has(EventID(i), EventID(j)) {
				mark = "X"
			}
			fmt.Fprintf(&b, " %*s", width, mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedLabeledPairs returns "x R y" strings for every related pair of
// labeled events, sorted; convenient for golden tests.
func (r *Relation) SortedLabeledPairs(x *Execution) []string {
	var out []string
	for _, p := range r.Pairs() {
		la, lb := x.Events[p[0]].Label, x.Events[p[1]].Label
		if la == "" || lb == "" {
			continue
		}
		out = append(out, fmt.Sprintf("%s %s %s", la, r.Name, lb))
	}
	sort.Strings(out)
	return out
}
