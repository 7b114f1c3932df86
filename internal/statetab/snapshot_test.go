package statetab

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"
)

// fillRandom populates tab with n random entries (values and aux words
// mixed) and returns the reference contents keyed by mapKey.
func fillRandom(rng *rand.Rand, tab *Table, words, n int, withAux bool) map[string]struct {
	key []uint64
	val bool
	aux uint64
} {
	ref := make(map[string]struct {
		key []uint64
		val bool
		aux uint64
	})
	for len(ref) < n {
		key := randKey(rng, words)
		val := rng.Intn(2) == 0
		var aux uint64
		if withAux {
			aux = rng.Uint64()
		}
		tab.StoreAux(key, val, aux)
		ref[mapKey(key)] = struct {
			key []uint64
			val bool
			aux uint64
		}{key, val, aux}
	}
	return ref
}

// TestSnapshotRoundTrip exports a table, gob-encodes and decodes the
// snapshot (the serialization checkpoints use), and imports it into a
// fresh table: contents must survive exactly, and the import must size the
// table once, at the exporter's capacity (the entries arrive in hash
// order, which a table doubling on the way piles into long probe runs).
func TestSnapshotRoundTrip(t *testing.T) {
	for _, words := range []int{1, 2, 5} {
		for _, withAux := range []bool{false, true} {
			t.Run(fmt.Sprintf("words=%d/aux=%v", words, withAux), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(words)*31 + 7))
				src := New(words, 0)
				ref := fillRandom(rng, src, words, 300, withAux)

				snap := src.Export()
				if snap.Entries != len(ref) {
					t.Fatalf("export captured %d entries, want %d", snap.Entries, len(ref))
				}
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
					t.Fatal(err)
				}
				var decoded Snapshot
				if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&decoded); err != nil {
					t.Fatal(err)
				}

				dst := New(words, 0)
				if err := dst.Import(&decoded); err != nil {
					t.Fatal(err)
				}
				if dst.Len() != len(ref) {
					t.Fatalf("import holds %d entries, want %d", dst.Len(), len(ref))
				}
				if got, want := dst.Stats(), src.Stats(); got.Grows != 0 || got.Capacity != want.Capacity {
					t.Errorf("import grew %d times to capacity %d, want 0 grows at capacity %d",
						got.Grows, got.Capacity, want.Capacity)
				}
				for _, e := range ref {
					val, aux, ok := dst.LookupAux(e.key)
					if !ok || val != e.val || aux != e.aux {
						t.Fatalf("entry %v: got (%v, %d, %v), want (%v, %d, present)",
							e.key, val, aux, ok, e.val, e.aux)
					}
				}

				// And once more, from the imported table's own export.
				back := New(words, 0)
				if err := back.Import(dst.Export()); err != nil {
					t.Fatal(err)
				}
				if back.Len() != len(ref) {
					t.Fatalf("round trip holds %d entries, want %d", back.Len(), len(ref))
				}
				for _, e := range ref {
					val, aux, ok := back.LookupAux(e.key)
					if !ok || val != e.val || aux != e.aux {
						t.Fatalf("round trip entry %v: got (%v, %d, %v)", e.key, val, aux, ok)
					}
				}
			})
		}
	}
}

// TestSnapshotValidate exercises the corruption checks an import performs
// before trusting a snapshot that crossed a serialization boundary.
func TestSnapshotValidate(t *testing.T) {
	good := func() *Snapshot {
		tab := New(2, 0)
		tab.StoreAux([]uint64{1, 2}, true, 9)
		tab.StoreAux([]uint64{3, 4}, false, 0)
		return tab.Export()
	}
	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"bad width", func(s *Snapshot) { s.Words = 0 }},
		{"truncated keys", func(s *Snapshot) { s.Keys = s.Keys[:len(s.Keys)-1] }},
		{"negative entries", func(s *Snapshot) { s.Entries = -1 }},
		{"bad val bitset", func(s *Snapshot) { s.Vals = nil }},
		{"bad aux length", func(s *Snapshot) { s.Aux = []uint64{1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good()
			tc.mutate(s)
			if err := New(2, 0).Import(s); err == nil {
				t.Error("import accepted a corrupt snapshot")
			}
		})
	}
	// Width mismatch against the destination table is rejected even when
	// the snapshot itself is well-formed.
	if err := New(3, 0).Import(good()); err == nil {
		t.Error("import accepted a snapshot of mismatched key width")
	}
}

// TestSnapshotEmpty round-trips a table with no entries.
func TestSnapshotEmpty(t *testing.T) {
	snap := New(4, 0).Export()
	if snap.Entries != 0 {
		t.Fatalf("empty export captured %d entries", snap.Entries)
	}
	dst := New(4, 0)
	if err := dst.Import(snap); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 0 {
		t.Fatalf("empty import holds %d entries", dst.Len())
	}
}
