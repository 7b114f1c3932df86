// Package statetab provides open-addressing hash tables specialized for the
// search core's packed state keys: fixed-width []uint64 words mapping to one
// boolean verdict ("a complete valid interleaving exists from this state",
// "this monitored search state reaches an accepted completion").
//
// The exact relation engine expands millions of states per query in the
// worst case — the paper's hardness theorems guarantee it — so the memo
// table IS the hot path. Go's builtin map[string]bool costs a string key
// allocation per insert, hashes byte-wise, and boxes every entry in a
// bucket; this table stores keys inline in one flat []uint64 array, hashes
// word-wise, probes linearly in a power-of-two capacity, and never
// allocates on lookup or on insert into existing capacity. Growth doubles
// the arrays and reinserts (amortized O(1) per insert, incremental in the
// sense that capacity tracks occupancy instead of being preallocated).
//
// Table is not safe for concurrent use: every search that owns one (a
// per-pair query's monitor memo, the batch matrix engine's exploration,
// the analyzer's completion memo) runs on one goroutine. Occupancy
// statistics (entries, bytes, load factor, grow count) let callers surface
// cache pressure.
package statetab

import "fmt"

// minCapacity is the smallest non-empty table capacity (power of two).
const minCapacity = 16

// maxLoadNum/maxLoadDen: grow when entries exceed 3/4 of capacity. Linear
// probing degrades sharply past that point.
const (
	maxLoadNum = 3
	maxLoadDen = 4
)

// Stats reports a table's occupancy at one instant.
type Stats struct {
	// Entries is the number of stored keys.
	Entries int
	// Capacity is the number of slots (power of two, 0 for a fresh table).
	Capacity int
	// Bytes is the heap footprint of the key and value arrays.
	Bytes int64
	// Load is Entries/Capacity (0 for a fresh table).
	Load float64
	// Grows counts capacity doublings since creation (or the last Reset).
	Grows int64
}

// Table is an open-addressing hash map from fixed-width packed state keys
// to a boolean, with inline key storage and no per-entry allocation.
// It is not safe for concurrent use.
type Table struct {
	words int      // uint64 words per key (fixed at creation)
	mask  uint64   // capacity-1; capacity is a power of two
	keys  []uint64 // capacity*words, keys stored inline
	vals  []uint8  // capacity; 0 = empty slot, else slotUsed|value bits
	aux   []uint64 // capacity, or nil while every entry's aux word is zero
	n     int      // stored entries
	grows int64
}

// Slot-value encoding: a zero byte marks an empty slot, so presence and
// value share the array and occupancy needs no separate bitmap.
const (
	slotUsed  = 1 << 0
	slotValue = 1 << 1
)

// New returns a table for keys of the given word width, sized for about
// hint entries (0 starts empty and grows on first insert).
func New(words, hint int) *Table {
	if words < 1 {
		words = 1
	}
	t := &Table{words: words}
	if hint > 0 {
		t.rehash(capacityFor(hint))
	}
	return t
}

// capacityFor returns the smallest power-of-two capacity that holds n
// entries under the load-factor bound.
func capacityFor(n int) int {
	c := minCapacity
	for c*maxLoadNum/maxLoadDen <= n {
		c <<= 1
	}
	return c
}

// hash mixes the key words into a 64-bit hash (xorshift-multiply per word,
// murmur-style finalizer).
func hash(key []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range key {
		h ^= w
		h *= 0xff51afd7ed558ccd
		h ^= h >> 29
	}
	h ^= h >> 32
	return h
}

// Words returns the fixed key width in uint64 words.
func (t *Table) Words() int { return t.words }

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.n }

// Stats returns the table's current occupancy.
func (t *Table) Stats() Stats {
	s := Stats{
		Entries:  t.n,
		Capacity: len(t.vals),
		Bytes:    int64(len(t.keys))*8 + int64(len(t.vals)) + int64(len(t.aux))*8,
		Grows:    t.grows,
	}
	if s.Capacity > 0 {
		s.Load = float64(s.Entries) / float64(s.Capacity)
	}
	return s
}

// Lookup returns the value stored for key and whether it is present.
// It never allocates.
func (t *Table) Lookup(key []uint64) (value, ok bool) {
	if t.n == 0 {
		return false, false
	}
	i := hash(key) & t.mask
	for {
		v := t.vals[i]
		if v == 0 {
			return false, false
		}
		if t.keyEqual(i, key) {
			return v&slotValue != 0, true
		}
		i = (i + 1) & t.mask
	}
}

// Store sets key's value, inserting it if absent. It allocates only when
// the insert crosses the load-factor bound and the table must grow.
func (t *Table) Store(key []uint64, value bool) {
	i, found := t.probe(key)
	var v uint8 = slotUsed
	if value {
		v |= slotValue
	}
	if found {
		t.vals[i] = v
		return
	}
	t.insertAt(i, key, v)
}

// Intern inserts key with value false if absent and reports whether this
// call inserted it. Present keys (and their values) are left untouched.
func (t *Table) Intern(key []uint64) (fresh bool) {
	i, found := t.probe(key)
	if found {
		return false
	}
	t.insertAt(i, key, slotUsed)
	return true
}

// LookupAux returns the value and auxiliary word stored for key, and whether
// the key is present. Entries written without an aux word read as aux 0.
// It never allocates.
func (t *Table) LookupAux(key []uint64) (value bool, aux uint64, ok bool) {
	if t.n == 0 {
		return false, 0, false
	}
	i := hash(key) & t.mask
	for {
		v := t.vals[i]
		if v == 0 {
			return false, 0, false
		}
		if t.keyEqual(i, key) {
			if t.aux != nil {
				aux = t.aux[i]
			}
			return v&slotValue != 0, aux, true
		}
		i = (i + 1) & t.mask
	}
}

// StoreAux sets key's value and auxiliary word, inserting the key if
// absent. The aux array is allocated lazily on the first nonzero aux, so
// tables that never store one pay nothing for it.
func (t *Table) StoreAux(key []uint64, value bool, aux uint64) {
	i, found := t.probe(key)
	var v uint8 = slotUsed
	if value {
		v |= slotValue
	}
	if !found {
		i = t.insertAt(i, key, v)
	} else {
		t.vals[i] = v
	}
	t.setAux(i, aux)
}

// InternAux inserts key with value false and the given auxiliary word if
// absent (reporting fresh=true), or AND-merges aux into the existing
// entry's word. The AND is the natural combine for sleep-set masks: a state
// reachable along several paths may only sleep what every path permits.
func (t *Table) InternAux(key []uint64, aux uint64) (fresh bool) {
	i, found := t.probe(key)
	if found {
		if t.aux != nil {
			t.aux[i] &= aux
		}
		return false
	}
	i = t.insertAt(i, key, slotUsed)
	t.setAux(i, aux)
	return true
}

// InternAuxOr inserts key with value false and the given auxiliary word if
// absent (reporting fresh=true), or OR-merges aux into the existing
// entry's word, returning the word as it was before the merge. The OR is
// the natural combine for accumulation masks — work items already folded
// for a key — where callers act on exactly the bits they were first to
// set (aux &^ old).
func (t *Table) InternAuxOr(key []uint64, aux uint64) (fresh bool, old uint64) {
	i, found := t.probe(key)
	if found {
		if t.aux != nil {
			old = t.aux[i]
		}
		t.setAux(i, old|aux)
		return false, old
	}
	i = t.insertAt(i, key, slotUsed)
	t.setAux(i, aux)
	return true, 0
}

// ClearAux sets every entry's auxiliary word to zero, releasing the aux
// array; keys and values stay.
func (t *Table) ClearAux() { t.aux = nil }

// setAux writes slot i's auxiliary word, allocating the aux array on the
// first nonzero write (a nil array reads as all-zero).
func (t *Table) setAux(i uint64, aux uint64) {
	if t.aux == nil {
		if aux == 0 {
			return
		}
		t.aux = make([]uint64, len(t.vals))
	}
	t.aux[i] = aux
}

// probe finds key's slot (found=true) or the empty slot where it belongs
// (found=false), growing the table first if it is missing capacity.
func (t *Table) probe(key []uint64) (slot uint64, found bool) {
	if len(t.vals) == 0 {
		t.rehash(minCapacity)
	}
	i := hash(key) & t.mask
	for {
		v := t.vals[i]
		if v == 0 {
			return i, false
		}
		if t.keyEqual(i, key) {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// insertAt writes a new entry into the empty slot probe returned, growing
// and re-probing when the insert would cross the load-factor bound, and
// returns the slot the entry finally landed in.
func (t *Table) insertAt(slot uint64, key []uint64, v uint8) uint64 {
	if (t.n+1)*maxLoadDen > len(t.vals)*maxLoadNum {
		t.rehash(len(t.vals) * 2)
		slot, _ = t.probe(key)
	}
	copy(t.keys[int(slot)*t.words:], key)
	t.vals[slot] = v
	t.n++
	return slot
}

// rehash resizes to capacity slots (a power of two) and reinserts every
// entry, carrying auxiliary words along when present.
func (t *Table) rehash(capacity int) {
	oldKeys, oldVals, oldAux := t.keys, t.vals, t.aux
	t.keys = make([]uint64, capacity*t.words)
	t.vals = make([]uint8, capacity)
	if oldAux != nil {
		t.aux = make([]uint64, capacity)
	}
	t.mask = uint64(capacity - 1)
	if len(oldVals) > 0 {
		t.grows++
	}
	for i, v := range oldVals {
		if v == 0 {
			continue
		}
		key := oldKeys[i*t.words : (i+1)*t.words]
		j := hash(key) & t.mask
		for t.vals[j] != 0 {
			j = (j + 1) & t.mask
		}
		copy(t.keys[int(j)*t.words:], key)
		t.vals[j] = v
		if oldAux != nil {
			t.aux[j] = oldAux[i]
		}
	}
}

// keyEqual reports whether slot i holds key.
func (t *Table) keyEqual(i uint64, key []uint64) bool {
	stored := t.keys[int(i)*t.words : int(i)*t.words+t.words]
	for w := range key {
		if stored[w] != key[w] {
			return false
		}
	}
	return true
}

// Reset drops every entry and releases the arrays, returning the table to
// its fresh (cold) state.
func (t *Table) Reset() {
	t.keys, t.vals, t.aux = nil, nil, nil
	t.mask, t.n, t.grows = 0, 0, 0
}

// Range calls fn for every entry until fn returns false. The key slice is
// reused between calls; copy it to retain. Mutating the table during Range
// is undefined.
func (t *Table) Range(fn func(key []uint64, value bool) bool) {
	for i, v := range t.vals {
		if v == 0 {
			continue
		}
		if !fn(t.keys[i*t.words:(i+1)*t.words], v&slotValue != 0) {
			return
		}
	}
}

// Snapshot is a serializable copy of a table's entries: keys flattened at
// Words stride, value bits packed into a bitset, and auxiliary words (nil
// when every entry's aux is zero). Snapshots are pure data — every field
// is a uint64 slice or an int — so they gob- and JSON-encode without any
// table internals leaking into the format. Entry order is the exporting
// table's iteration order; importers must not depend on it.
type Snapshot struct {
	// Words is the fixed key width in uint64 words.
	Words int
	// Entries is the number of entries captured.
	Entries int
	// Keys holds Entries keys back to back, Words words each.
	Keys []uint64
	// Vals is a bitset of Entries bits: bit i is entry i's value.
	Vals []uint64
	// Aux holds one auxiliary word per entry, or nil when all are zero.
	Aux []uint64
}

// val reads entry i's value bit.
func (s *Snapshot) val(i int) bool { return s.Vals[i/64]&(1<<uint(i%64)) != 0 }

// setVal sets entry i's value bit.
func (s *Snapshot) setVal(i int) { s.Vals[i/64] |= 1 << uint(i%64) }

// Key returns entry i's key, aliasing the snapshot's storage.
func (s *Snapshot) Key(i int) []uint64 { return s.Keys[i*s.Words : (i+1)*s.Words] }

// Val returns entry i's value bit.
func (s *Snapshot) Val(i int) bool { return s.val(i) }

// AuxAt returns entry i's auxiliary word (0 when none were captured).
func (s *Snapshot) AuxAt(i int) uint64 {
	if s.Aux == nil {
		return 0
	}
	return s.Aux[i]
}

// Append adds one entry to a snapshot being built entry by entry (e.g. a
// filtered copy of an export). It must only be used on snapshots whose
// every entry was added through Append — mixing it with an exporter's
// preallocated layout is undefined. key must be Words words long.
func (s *Snapshot) Append(key []uint64, value bool, aux uint64) {
	s.Keys = append(s.Keys, key...)
	if s.Entries%64 == 0 {
		s.Vals = append(s.Vals, 0)
	}
	if value {
		s.setVal(s.Entries)
	}
	s.Aux = append(s.Aux, aux)
	s.Entries++
}

// Validate checks the snapshot's internal consistency (slice lengths match
// the declared entry count and key width) before an import walks it.
func (s *Snapshot) Validate() error {
	if s.Words < 1 {
		return fmt.Errorf("statetab: snapshot key width %d", s.Words)
	}
	if s.Entries < 0 || len(s.Keys) != s.Entries*s.Words {
		return fmt.Errorf("statetab: snapshot holds %d key words, want %d entries x %d words",
			len(s.Keys), s.Entries, s.Words)
	}
	if want := (s.Entries + 63) / 64; len(s.Vals) != want {
		return fmt.Errorf("statetab: snapshot value bitset has %d words, want %d", len(s.Vals), want)
	}
	if s.Aux != nil && len(s.Aux) != s.Entries {
		return fmt.Errorf("statetab: snapshot has %d aux words, want %d", len(s.Aux), s.Entries)
	}
	return nil
}

// Export copies the table's contents into a serializable snapshot, in
// slot order.
func (t *Table) Export() *Snapshot {
	snap := &Snapshot{
		Words: t.words,
		Keys:  make([]uint64, 0, t.n*t.words),
		Vals:  make([]uint64, (t.n+63)/64),
	}
	if t.aux != nil {
		snap.Aux = make([]uint64, 0, t.n)
	}
	for i, v := range t.vals {
		if v == 0 {
			continue
		}
		snap.Keys = append(snap.Keys, t.keys[i*t.words:(i+1)*t.words]...)
		if v&slotValue != 0 {
			snap.setVal(snap.Entries)
		}
		if t.aux != nil {
			snap.Aux = append(snap.Aux, t.aux[i])
		}
		snap.Entries++
	}
	return snap
}

// Import inserts every snapshot entry into the table, replacing the value
// and aux word of any key already present. Importing into an empty table
// reproduces the exported contents exactly.
func (t *Table) Import(snap *Snapshot) error {
	if err := snap.Validate(); err != nil {
		return err
	}
	if snap.Words != t.words {
		return fmt.Errorf("statetab: importing %d-word keys into a %d-word table", snap.Words, t.words)
	}
	// Size once for every entry. The entries arrive in the exporter's slot
	// (hash) order, so inserting them into a table that doubles on the way
	// piles them into long probe runs at every smaller capacity.
	// capacityFor(total-1) is the capacity inserting total entries one by
	// one would end at.
	if total := t.n + snap.Entries; snap.Entries > 0 && total*maxLoadDen > len(t.vals)*maxLoadNum {
		t.rehash(capacityFor(total - 1))
	}
	for i := 0; i < snap.Entries; i++ {
		key := snap.Keys[i*snap.Words : (i+1)*snap.Words]
		var aux uint64
		if snap.Aux != nil {
			aux = snap.Aux[i]
		}
		t.StoreAux(key, snap.val(i), aux)
	}
	return nil
}
