package core

// Symmetry reduction over packed state keys. internal/symm proves classes
// of interchangeable processes; this file maps any packed state to the
// lexicographically-least member of its orbit under the proven group. Two
// facts make the orbit representative cheap to compute:
//
//   - An automorphism permutes processes within classes and fixes every
//     semaphore and event variable, so its action on a packed key permutes
//     the pc fields of each class and leaves all other bits alone.
//   - The group is the full symmetric group on each class, so the least key
//     is reached by independently sorting each class's pc values ascending
//     (pc fields are packed ascending by process id from bit 0, so the
//     ascending value order is the lexicographically-least packing).

// canonicalizeKey writes into dst the least orbit representative of the
// packed state src. Event bits and the extra byte are fixed by the group
// and copied through. Reports whether dst differs from src. src and dst
// must be distinct keyWords slices.
func (a *Analyzer) canonicalizeKey(src, dst []uint64) bool {
	copy(dst, src)
	changed := false
	pb := a.pcBits
	for _, class := range a.symmClasses {
		vals := a.symmVals[:len(class)]
		for i, p := range class {
			vals[i] = int32(readBits(src, uint(p)*pb, pb))
		}
		// Insertion sort by pc value (classes are small). A value moves only
		// past a strictly larger one, so any move changes the packing.
		for i := 1; i < len(vals); i++ {
			v := vals[i]
			j := i
			for j > 0 && vals[j-1] > v {
				vals[j] = vals[j-1]
				j--
			}
			if j != i {
				vals[j] = v
				changed = true
			}
		}
		for r, p := range class {
			writeBits(dst, uint(p)*pb, pb, uint64(vals[r]))
		}
	}
	return changed
}

// writeBits stores the low width bits of v at bit offset in key,
// spilling into the next word when the field straddles a boundary
// (the dual of readBits). width must be < 64.
func writeBits(key []uint64, bit, width uint, v uint64) {
	w, off := bit>>6, bit&63
	mask := uint64(1)<<width - 1
	key[w] = key[w]&^(mask<<off) | v<<off
	if off+width > 64 {
		hi := off + width - 64
		hiMask := uint64(1)<<hi - 1
		key[w+1] = key[w+1]&^hiMask | v>>(64-off)
	}
}
