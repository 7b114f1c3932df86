package core

import (
	"math/bits"

	"eventorder/internal/model"
	"eventorder/internal/statetab"
)

// Position-addressed state memo for the batch pass. Every reachable state
// of a non-symmetric pass is a vector of per-process program counters plus
// the event-variable bits, so when the product of the counters' ranges and
// 2^evBits is small the pass can address each state directly by its
// mixed-radix index instead of packing, hashing and probing a key:
//
//	index = ev + Σ pc[p]·stride[p],  stride[p] = 2^evBits · ∏_{q<p} (len(procActs[q])+1)
//
// A child's index is its parent's plus the acting process's stride, with
// one event bit set or cleared for a post or clear. Each index owns two
// bits (finished, completable), so 2^20 cells cost 256 KiB. The fold
// dedupe keys on the pc vector alone, which is the index shifted right by
// evBits, so it becomes a bitset over the pc-only product; without event
// variables every pc vector is one cell, which finishes once, so the
// bitset would mirror the completable cells and is not kept.

// cellLimit is the largest cell count, ∏(len(procActs[p])+1)·2^evBits,
// whose non-symmetric Matrix pass runs over a cellMemo. Larger products
// and symmetric passes run over hashed statetab tables.
const cellLimit = 1 << 20

// cellMemo is the batch pass's position-addressed state memo. cells holds
// two bits per state index — finished (the even bit) and completable (the
// odd bit) — and seen one bit per pc vector whose state facts are folded
// (nil without event variables, where the completable cells are that
// set). A complete run hands it to the analyzer as its completion memo
// until a per-pair query's completion search converts it to a statetab
// table.
type cellMemo struct {
	cells   []uint64
	seen    []uint64
	stride  []int // per process: the index step of one action
	base    []int // per process: len(procActs[p])+1, its digit's base
	evBits  uint
	size    int // cell count
	entries int // finished states
}

// newCellMemo returns an empty cell memo for a's states, or nil when the
// cell count exceeds limit.
func newCellMemo(a *Analyzer, limit int) *cellMemo {
	if a.evBits > 20 || 1<<a.evBits > limit {
		return nil
	}
	n := len(a.procActs)
	digits := make([]int, 2*n)
	c := &cellMemo{stride: digits[:n:n], base: digits[n:], evBits: uint(a.evBits)}
	size := 1 << a.evBits
	for p, ids := range a.procActs {
		c.stride[p], c.base[p] = size, len(ids)+1
		if size *= len(ids) + 1; size > limit {
			return nil
		}
	}
	c.size = size
	c.cells = make([]uint64, (size+31)/32)
	if c.evBits > 0 {
		c.seen = make([]uint64, (size>>c.evBits+63)/64)
	}
	return c
}

// index returns the cell of the state with counters pc and event bits ev.
func (c *cellMemo) index(pc []int32, ev []uint64) int {
	i := 0
	if c.evBits > 0 {
		i = int(ev[0])
	}
	for p, v := range pc {
		i += int(v) * c.stride[p]
	}
	return i
}

// child returns the cell reached from cell i by executing act.
func (c *cellMemo) child(i int, act *action) int {
	i += c.stride[act.proc]
	if act.kind == actSync {
		switch act.opKind {
		case model.OpPost:
			i |= 1 << uint(act.obj)
		case model.OpClear:
			i &^= 1 << uint(act.obj)
		}
	}
	return i
}

// lookup returns cell i's completability and whether it is finished.
func (c *cellMemo) lookup(i int) (completable, finished bool) {
	w := c.cells[i>>5] >> (uint(i&31) << 1)
	return w&2 != 0, w&1 != 0
}

// store marks cell i finished with the given completability.
func (c *cellMemo) store(i int, completable bool) {
	sh := uint(i&31) << 1
	w := c.cells[i>>5]
	if w&(1<<sh) == 0 {
		c.entries++
	}
	v := uint64(1)
	if completable {
		v = 3
	}
	c.cells[i>>5] = w&^(3<<sh) | v<<sh
}

// markSeen records that the state facts of finishing cell i's pc vector
// are folded and reports whether they were not already. Without event
// variables the pc vector is cell i alone, which finishes only once.
func (c *cellMemo) markSeen(i int) bool {
	if c.seen == nil {
		return true
	}
	s := i >> c.evBits
	w, bit := s>>6, uint64(1)<<uint(s&63)
	if c.seen[w]&bit != 0 {
		return false
	}
	c.seen[w] |= bit
	return true
}

// stats reports the memo's occupancy in statetab's terms: entries are the
// finished states, capacity the cells, bytes the cell array plus the fold
// bitset, and there is no growth.
func (c *cellMemo) stats() statetab.Stats {
	return statetab.Stats{
		Entries:  c.entries,
		Capacity: c.size,
		Bytes:    int64(len(c.cells)+len(c.seen)) * 8,
		Load:     float64(c.entries) / float64(c.size),
	}
}

// decode writes cell i's counters into pc and, when ev is not nil, its
// event bits into ev.
func (c *cellMemo) decode(i int, pc []int32, ev []uint64) {
	if ev != nil && c.evBits > 0 {
		ev[0] = uint64(i) & (1<<c.evBits - 1)
	}
	i >>= c.evBits
	for p, b := range c.base {
		pc[p] = int32(i % b)
		i /= b
	}
}

// cellKey packs counters pc and event bits ev into dst as a's completion
// memo key, the key packKey derives for the same state.
func (a *Analyzer) cellKey(pc []int32, ev []uint64, dst []uint64) {
	a.packCounters(pc, dst)
	bit := uint(len(pc)) * a.pcBits
	if a.evBits > 0 {
		writeBits(dst, bit, uint(a.evBits), ev[0])
	}
	writeBits(dst, bit+uint(a.evBits), 8, keyExtraComplete)
}

// packCounters zeroes dst and writes counters pc into its pc fields.
func (a *Analyzer) packCounters(pc []int32, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	for p, v := range pc {
		writeBits(dst, uint(p)*a.pcBits, a.pcBits, uint64(v))
	}
}

// rangeStates calls fn with the packed key and completability of every
// finished cell, in index order, until fn returns false. The key slice is
// reused between calls.
func (c *cellMemo) rangeStates(a *Analyzer, fn func(key []uint64, completable bool) bool) {
	key := make([]uint64, a.keyWords)
	pc := make([]int32, len(c.base))
	ev := make([]uint64, len(a.evInit))
	for wi, w := range c.cells {
		for m := w & 0x5555555555555555; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			c.decode(wi<<5|b>>1, pc, ev)
			a.cellKey(pc, ev, key)
			if !fn(key, w>>uint(b+1)&1 != 0) {
				return
			}
		}
	}
}

// export converts the memo into the checkpoint's packed-key snapshots:
// the finished states, and the pc signatures (pcSig's prefix of the
// packed key) whose state facts are folded.
func (c *cellMemo) export(a *Analyzer) (states, pcSeen *statetab.Snapshot) {
	sigWords, sigMask := a.pcSigGeometry()
	states = &statetab.Snapshot{Words: a.keyWords}
	pcSeen = &statetab.Snapshot{Words: sigWords}
	sig := make([]uint64, sigWords)
	c.rangeStates(a, func(key []uint64, completable bool) bool {
		states.Append(key, completable)
		if completable && c.seen == nil {
			copy(sig, key)
			sig[sigWords-1] &= sigMask
			pcSeen.Append(sig, false)
		}
		return true
	})
	pc := make([]int32, len(c.base))
	for wi, w := range c.seen {
		for ; w != 0; w &= w - 1 {
			c.decode((wi<<6|bits.TrailingZeros64(w))<<c.evBits, pc, nil)
			a.packCounters(pc, sig)
			pcSeen.Append(sig, false)
		}
	}
	return states, pcSeen
}

// restore fills the memo from a validated checkpoint's finished states
// and folded pc signatures, whose keys validateFor has bounds-checked. It
// decodes the keys through the analyzer's search state, which the pass
// resets before it starts. Without event variables the signatures are
// those of the completable states and are not kept apart.
func (c *cellMemo) restore(a *Analyzer, states, pcSeen *statetab.Snapshot) {
	for i := 0; i < states.Entries; i++ {
		a.unpackKey(states.Key(i))
		c.store(c.index(a.pc, a.ev), states.Val(i))
	}
	if c.seen == nil {
		return
	}
	key := make([]uint64, a.keyWords) // a signature's key: no event bits
	for i := 0; i < pcSeen.Entries; i++ {
		copy(key, pcSeen.Key(i))
		a.unpackKey(key)
		c.markSeen(c.index(a.pc, a.ev))
	}
}

// table converts the memo into a statetab completion memo holding the
// same states under their packed keys.
func (c *cellMemo) table(a *Analyzer) *statetab.Table {
	t := statetab.New(a.keyWords, c.entries)
	c.rangeStates(a, func(key []uint64, completable bool) bool {
		t.Store(key, completable)
		return true
	})
	return t
}
