package core

import (
	"math/rand"
	"slices"
	"testing"
)

// latticeVectors lists every vector v with 0 ≤ v[i] ≤ totals[i].
func latticeVectors(totals []uint16) [][]uint16 {
	out := [][]uint16{make([]uint16, len(totals))}
	for i, t := range totals {
		var next [][]uint16
		for _, v := range out {
			for x := 0; x <= int(t); x++ {
				w := slices.Clone(v)
				w[i] = uint16(x)
				next = append(next, w)
			}
		}
		out = next
	}
	return out
}

// TestVecTableLatticeSized interns every vector of small and boundary
// lattices in a random order: a lattice under chunkSize vectors lives in
// one chunk of exactly its size, a larger one in chunkSize chunks, and
// every vector reads back unchanged after all later interns, at the index
// a second intern finds.
func TestVecTableLatticeSized(t *testing.T) {
	wide := make([]uint16, 70) // 70 one-bit keys, 71 bits: the string-keyed map
	wide[69] = 2
	for _, tc := range []struct {
		name   string
		totals []uint16
		chunks int // chunks after interning the whole lattice
		chunkN int // vectors per chunk
	}{
		{"empty", nil, 1, 1},
		{"two-types", []uint16{3, 4}, 1, 20},
		{"three-types", []uint16{2, 2, 2}, 1, 27},
		{"just-under", []uint16{4094}, 1, 4095},
		{"exactly-a-chunk", []uint16{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 1, chunkSize},
		{"just-over", []uint16{4096}, 2, chunkSize},
		{"wide-key", wide, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vt := newVecTable(tc.totals)
			if vt.chunkN != tc.chunkN {
				t.Fatalf("chunk of %d vectors, want %d", vt.chunkN, tc.chunkN)
			}
			vecs := latticeVectors(tc.totals)
			rand.New(rand.NewSource(1)).Shuffle(len(vecs), func(i, j int) { vecs[i], vecs[j] = vecs[j], vecs[i] })
			for i, v := range vecs {
				idx, known := vt.intern(v)
				if known || int(idx) != i {
					t.Fatalf("intern %v = (%d, %v), want (%d, false)", v, idx, known, i)
				}
			}
			if len(vt.chunks) != tc.chunks {
				t.Fatalf("%d chunks for %d vectors, want %d", len(vt.chunks), len(vecs), tc.chunks)
			}
			for _, c := range vt.chunks {
				if len(c) != tc.chunkN*len(tc.totals) {
					t.Fatalf("chunk of %d values, want %d", len(c), tc.chunkN*len(tc.totals))
				}
			}
			for i, v := range vecs {
				if got := vt.vec(int32(i)); !slices.Equal(got, v) {
					t.Fatalf("vec(%d) = %v, interned %v", i, got, v)
				}
				if idx, known := vt.intern(v); !known || int(idx) != i {
					t.Fatalf("re-intern %v = (%d, %v), want (%d, true)", v, idx, known, i)
				}
			}
		})
	}
}
