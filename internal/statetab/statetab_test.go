package statetab

import (
	"fmt"
	"math/rand"
	"testing"
)

// randKey draws a key whose words are biased toward small values and
// shared prefixes, the shape real packed state keys have (few processes
// advanced, most words sparse) and the worst case for a weak hash.
func randKey(rng *rand.Rand, words int) []uint64 {
	key := make([]uint64, words)
	for w := range key {
		switch rng.Intn(3) {
		case 0:
			key[w] = uint64(rng.Intn(4))
		case 1:
			key[w] = uint64(rng.Intn(1 << 16))
		default:
			key[w] = rng.Uint64()
		}
	}
	return key
}

func mapKey(key []uint64) string {
	return fmt.Sprint(key)
}

// TestTableMatchesBuiltinMap drives a Table and a builtin map through the
// same randomized operation sequence — stores, interns, lookups of present
// and absent keys — and requires identical observable behavior at every
// step, across enough inserts to force several growths.
func TestTableMatchesBuiltinMap(t *testing.T) {
	for _, words := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("words=%d", words), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(words) * 7919))
			tab := New(words, 0)
			ref := map[string]bool{}
			var keys [][]uint64 // pool of keys, revisited to hit updates

			for op := 0; op < 20000; op++ {
				var key []uint64
				if len(keys) > 0 && rng.Intn(3) == 0 {
					key = keys[rng.Intn(len(keys))]
				} else {
					key = randKey(rng, words)
					keys = append(keys, key)
				}
				sk := mapKey(key)
				switch rng.Intn(3) {
				case 0:
					v := rng.Intn(2) == 0
					tab.Store(key, v)
					ref[sk] = v
				case 1:
					fresh := tab.Intern(key)
					_, had := ref[sk]
					if fresh == had {
						t.Fatalf("op %d: Intern(%v) fresh=%v, map had=%v", op, key, fresh, had)
					}
					if !had {
						ref[sk] = false
					}
				default:
					got, ok := tab.Lookup(key)
					want, had := ref[sk]
					if ok != had || (ok && got != want) {
						t.Fatalf("op %d: Lookup(%v) = (%v,%v), map = (%v,%v)", op, key, got, ok, want, had)
					}
				}
				if tab.Len() != len(ref) {
					t.Fatalf("op %d: Len=%d, map len=%d", op, tab.Len(), len(ref))
				}
			}

			// Full sweep: every map entry present with its value, and Range
			// yields exactly the map's contents.
			for _, key := range keys {
				want, had := ref[mapKey(key)]
				got, ok := tab.Lookup(key)
				if ok != had || (ok && got != want) {
					t.Fatalf("sweep: Lookup(%v) = (%v,%v), map = (%v,%v)", key, got, ok, want, had)
				}
			}
			seen := map[string]bool{}
			tab.Range(func(key []uint64, v bool) bool {
				sk := mapKey(key)
				if _, dup := seen[sk]; dup {
					t.Fatalf("Range yielded %v twice", key)
				}
				seen[sk] = v
				return true
			})
			if len(seen) != len(ref) {
				t.Fatalf("Range yielded %d entries, map has %d", len(seen), len(ref))
			}
			for sk, v := range seen {
				if ref[sk] != v {
					t.Fatalf("Range value mismatch at %s: got %v want %v", sk, v, ref[sk])
				}
			}
			if st := tab.Stats(); st.Grows == 0 || st.Load > float64(maxLoadNum)/float64(maxLoadDen) {
				t.Fatalf("stats after heavy load: %+v (want growth and load <= %d/%d)", st, maxLoadNum, maxLoadDen)
			}
		})
	}
}

// TestReset verifies Reset returns a table to its cold state.
func TestReset(t *testing.T) {
	tab := New(2, 0)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		tab.Store(randKey(rng, 2), true)
	}
	if tab.Len() == 0 {
		t.Fatal("setup stored nothing")
	}
	probe := randKey(rng, 2)
	tab.Store(probe, true)
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len=%d after Reset", tab.Len())
	}
	if _, ok := tab.Lookup(probe); ok {
		t.Fatal("Lookup found an entry after Reset")
	}
	if st := tab.Stats(); st.Entries != 0 || st.Capacity != 0 || st.Bytes != 0 || st.Grows != 0 {
		t.Fatalf("stats not cold after Reset: %+v", st)
	}
	// The table must be usable again.
	tab.Store(probe, false)
	if v, ok := tab.Lookup(probe); !ok || v {
		t.Fatalf("post-Reset Store/Lookup = (%v,%v), want (false,true)", v, ok)
	}
}

// TestZeroAllocOperations proves the steady-state operations are
// allocation-free: lookups always, stores and interns once capacity
// exists.
func TestZeroAllocOperations(t *testing.T) {
	tab := New(2, 4096)
	rng := rand.New(rand.NewSource(7))
	keys := make([][]uint64, 1024)
	for i := range keys {
		keys[i] = randKey(rng, 2)
		tab.Store(keys[i], true)
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		tab.Lookup(keys[i%len(keys)])
		i++
	}); avg != 0 {
		t.Fatalf("Lookup allocates %v/op", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		tab.Store(keys[i%len(keys)], i%2 == 0)
		i++
	}); avg != 0 {
		t.Fatalf("Store of existing keys allocates %v/op", avg)
	}
}

// TestAuxMatchesBuiltinMap drives the aux-word API and a reference map of
// (value, aux) pairs through the same randomized sequence — StoreAux,
// InternAux (AND-merge), plain Store/Intern interleaved — and requires
// identical observable state throughout, across several growths so aux
// words provably survive rehashing.
func TestAuxMatchesBuiltinMap(t *testing.T) {
	type entry struct {
		val bool
		aux uint64
	}
	for _, words := range []int{1, 3} {
		t.Run(fmt.Sprintf("words=%d", words), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(words) * 104729))
			tab := New(words, 0)
			ref := map[string]entry{}
			var keys [][]uint64
			for op := 0; op < 20000; op++ {
				var key []uint64
				if len(keys) > 0 && rng.Intn(3) == 0 {
					key = keys[rng.Intn(len(keys))]
				} else {
					key = randKey(rng, words)
					keys = append(keys, key)
				}
				sk := mapKey(key)
				switch rng.Intn(4) {
				case 0:
					v, aux := rng.Intn(2) == 0, rng.Uint64()
					tab.StoreAux(key, v, aux)
					ref[sk] = entry{v, aux}
				case 1:
					aux := rng.Uint64()
					fresh := tab.InternAux(key, aux)
					e, had := ref[sk]
					if fresh == had {
						t.Fatalf("op %d: InternAux fresh=%v, map had=%v", op, fresh, had)
					}
					if had {
						ref[sk] = entry{e.val, e.aux & aux}
					} else {
						ref[sk] = entry{false, aux}
					}
				case 2:
					// Plain Store must preserve the aux word.
					v := rng.Intn(2) == 0
					tab.Store(key, v)
					e := ref[sk] // zero value for fresh keys: aux 0
					ref[sk] = entry{v, e.aux}
				default:
					v, aux, ok := tab.LookupAux(key)
					e, had := ref[sk]
					if ok != had || (ok && (v != e.val || aux != e.aux)) {
						t.Fatalf("op %d: LookupAux(%v) = (%v,%#x,%v), map = (%v,%#x,%v)",
							op, key, v, aux, ok, e.val, e.aux, had)
					}
				}
			}
			for _, key := range keys {
				e, had := ref[mapKey(key)]
				v, aux, ok := tab.LookupAux(key)
				if ok != had || (ok && (v != e.val || aux != e.aux)) {
					t.Fatalf("sweep: LookupAux(%v) = (%v,%#x,%v), map = (%v,%#x,%v)",
						key, v, aux, ok, e.val, e.aux, had)
				}
			}
			if st := tab.Stats(); st.Grows == 0 {
				t.Fatalf("aux sweep never grew the table: %+v", st)
			}
		})
	}
}

// TestAuxLazyAllocation pins the cost model: a table whose aux words are
// all zero must never allocate the aux array (its Bytes stay those of a
// plain table), and LookupAux on such a table reads aux 0. ClearAux
// returns a table with nonzero aux words to that state.
func TestAuxLazyAllocation(t *testing.T) {
	tab := New(2, 0)
	plain := New(2, 0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		k := randKey(rng, 2)
		tab.InternAux(k, 0)
		tab.StoreAux(k, true, 0)
		plain.Store(k, true)
	}
	if tb, pb := tab.Stats().Bytes, plain.Stats().Bytes; tb != pb {
		t.Fatalf("all-zero aux table holds %d bytes, plain table %d; aux array should not exist", tb, pb)
	}
	probe := randKey(rng, 2)
	tab.Store(probe, false)
	plain.Store(probe, false)
	if _, aux, ok := tab.LookupAux(probe); !ok || aux != 0 {
		t.Fatalf("LookupAux without aux array = (_, %#x, %v), want (_, 0, true)", aux, ok)
	}

	tab.StoreAux(probe, true, 7)
	plain.Store(probe, true)
	tab.ClearAux()
	if tb, pb := tab.Stats().Bytes, plain.Stats().Bytes; tb != pb {
		t.Fatalf("table holds %d bytes after ClearAux, plain table %d", tb, pb)
	}
	if v, aux, ok := tab.LookupAux(probe); !ok || !v || aux != 0 {
		t.Fatalf("LookupAux after ClearAux = (%v, %#x, %v), want (true, 0, true)", v, aux, ok)
	}
}

// TestLookupAuxZeroAlloc gates the POR memo's hot path: LookupAux must be
// allocation-free exactly like Lookup.
func TestLookupAuxZeroAlloc(t *testing.T) {
	tab := New(2, 1024)
	rng := rand.New(rand.NewSource(13))
	keys := make([][]uint64, 512)
	for i := range keys {
		keys[i] = randKey(rng, 2)
		tab.StoreAux(keys[i], true, rng.Uint64())
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		tab.LookupAux(keys[i%len(keys)])
		i++
	}); avg != 0 {
		t.Fatalf("LookupAux allocates %v/op", avg)
	}
}

func BenchmarkTableStoreLookup(b *testing.B) {
	for _, words := range []int{2, 4} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			keys := make([][]uint64, 8192)
			for i := range keys {
				keys[i] = randKey(rng, words)
			}
			tab := New(words, len(keys))
			for _, k := range keys {
				tab.Store(k, true)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Lookup(keys[i%len(keys)])
			}
		})
	}
}
