package core

// Intern table and verdict table of the search space.
//
// vecTable gives every distinct vector a dense index and keeps the
// flattened payloads in fixed-size chunks, so the slice vec returns stays
// valid while the table grows. feasTable packs one 2-bit verdict per dense
// index, 16 to a uint32 word: slot i is the verdict for vector i. Both
// belong to the one goroutine that owns the space.

const (
	// chunkBits sizes the payload chunks: 4096 vectors each.
	chunkBits = 12
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// vecTable is the intern table: vector → dense index → vector.
type vecTable struct {
	nTypes int
	key    keyer
	n      int32            // number of interned vectors
	m64    map[uint64]int32 // when the packed key fits 64 bits
	mS     map[string]int32 // fallback for wide vectors
	chunks [][]uint16
	chunkN int // vectors per chunk: chunkSize, or the whole lattice when smaller
}

// newVecTable sizes the table to its lattice: every interned vector v has
// 0 ≤ v[i] ≤ totals[i], so a lattice of fewer than chunkSize vectors fits
// one chunk of exactly that many. The map hint is the lattice, capped at
// 1024.
func newVecTable(totals []uint16) *vecTable {
	lattice := 1
	for _, t := range totals {
		if lattice *= int(t) + 1; lattice >= chunkSize {
			lattice = chunkSize
			break
		}
	}
	vt := &vecTable{nTypes: len(totals), key: newKeyer(totals), chunkN: lattice}
	hint := min(1024, lattice)
	if vt.key.fits64 {
		vt.m64 = make(map[uint64]int32, hint)
	} else {
		vt.mS = make(map[string]int32, hint)
	}
	return vt
}

// len returns the number of interned vectors.
func (vt *vecTable) len() int { return int(vt.n) }

// vec returns the interned vector at idx. The returned slice aliases
// chunk storage; do not modify.
func (vt *vecTable) vec(idx int32) []uint16 {
	off := (int(idx) & chunkMask) * vt.nTypes
	return vt.chunks[idx>>chunkBits][off : off+vt.nTypes]
}

// intern returns the dense index for vec, creating it if new. The returned
// bool is true when the vector was already known.
func (vt *vecTable) intern(vec []uint16) (int32, bool) {
	if vt.key.fits64 {
		key := vt.key.key64(vec)
		if idx, ok := vt.m64[key]; ok {
			return idx, true
		}
		idx := vt.place(vec)
		vt.m64[key] = idx
		return idx, false
	}
	buf := vt.key.keyBytes(vec)
	if idx, ok := vt.mS[string(buf)]; ok {
		return idx, true
	}
	idx := vt.place(vec)
	vt.mS[string(buf)] = idx
	return idx, false
}

// place allocates the next dense index and writes the payload.
func (vt *vecTable) place(vec []uint16) int32 {
	idx := vt.n
	vt.n++
	if int(idx)&chunkMask == 0 {
		vt.chunks = append(vt.chunks, make([]uint16, vt.chunkN*vt.nTypes))
	}
	copy(vt.vec(idx), vec)
	return idx
}

// lookup returns the dense index for vec without creating it.
func (vt *vecTable) lookup(vec []uint16) (int32, bool) {
	if vt.key.fits64 {
		idx, ok := vt.m64[vt.key.key64(vec)]
		return idx, ok
	}
	idx, ok := vt.mS[string(vt.key.keyBytes(vec))]
	return idx, ok
}

// feasTable is the equivalent-state satisfiability cache (§4.2) for the
// non-funneling regime, where a verdict depends on the vector alone: one
// 2-bit verdict per interned vector (feasYes, feasNo, 0 for unknown),
// packed 16 to a uint32 word — 1KB per 4096 vectors.
type feasTable struct {
	words []uint32
}

const (
	feasBits    = 2
	feasPerWord = 32 / feasBits // verdicts packed per uint32
	feasVMask   = 1<<feasBits - 1
)

// feasSlot locates idx's word and in-word bit shift.
func feasSlot(idx int32) (word int, shift uint) {
	return int(idx) / feasPerWord, uint(idx%feasPerWord) * feasBits
}

// get returns the verdict for idx: feasYes, feasNo, or 0 for unknown.
func (ft *feasTable) get(idx int32) int8 {
	word, shift := feasSlot(idx)
	if word >= len(ft.words) {
		return 0
	}
	return int8(ft.words[word] >> shift & feasVMask)
}

// set stores a verdict (or 0 to forget one).
func (ft *feasTable) set(idx int32, v int8) {
	word, shift := feasSlot(idx)
	for word >= len(ft.words) {
		ft.words = append(ft.words, 0)
	}
	ft.words[word] = ft.words[word]&^(uint32(feasVMask)<<shift) | uint32(v)<<shift
}
