package bitarray

import (
	"math/bits"
	"sync/atomic"
)

// TriRows is a horizontal slice of a triangular bit array: the rows
// h1 in [lo, hi), stored contiguously with the same h1-major packing
// as Tri but rebased so the slice allocates only its own rows'
// hi*(hi-1)/2 - lo*(lo-1)/2 bits. It backs the per-shard H2H
// structures of the sharded execution path: shard b holds exactly the
// H2H rows of its vertex range, and the full grid's slices together
// cover the same bits as the monolithic Tri.
//
// Like Tri it supports lock-free concurrent Set during preprocessing
// and wait-free probes during counting, and it hands out the same
// RowProbe cursor, so the phase-1 kernels (scalar and word-parallel)
// run unchanged against sliced storage.
type TriRows struct {
	lo, hi uint32
	words  []uint64
}

// rowBase returns the triangular bit index where row r starts. r == 0
// multiplies by zero, so the wrapped r-1 is harmless.
func rowBase(r uint32) uint64 {
	return uint64(r) * uint64(r-1) / 2
}

// NewTriRows allocates a zeroed slice holding rows [lo, hi) of a
// triangular array. lo > hi is treated as an empty slice.
func NewTriRows(lo, hi uint32) *TriRows {
	if hi < lo {
		hi = lo
	}
	nbits := rowBase(hi) - rowBase(lo)
	return &TriRows{lo: lo, hi: hi, words: make([]uint64, (nbits+63)/64)}
}

// Lo returns the first row held.
func (t *TriRows) Lo() uint32 { return t.lo }

// Hi returns one past the last row held.
func (t *TriRows) Hi() uint32 { return t.hi }

// Bits returns the bit capacity of the slice.
func (t *TriRows) Bits() uint64 { return rowBase(t.hi) - rowBase(t.lo) }

// SizeBytes returns the allocated backing size in bytes.
func (t *TriRows) SizeBytes() int64 { return int64(len(t.words)) * 8 }

// index returns the slice-local bit index of the pair (h1, h2),
// h1 > h2, lo <= h1 < hi.
func (t *TriRows) index(h1, h2 uint32) uint64 {
	return rowBase(h1) - rowBase(t.lo) + uint64(h2)
}

// Set records the edge (h1, h2) with h1 the row (lo <= h1 < hi) and
// h2 < h1 the column. Unlike Tri.Set the arguments are not
// order-normalized: the row must be the one this slice holds. Safe
// for concurrent use.
func (t *TriRows) Set(h1, h2 uint32) {
	i := t.index(h1, h2)
	w := &t.words[i>>6]
	mask := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// IsSet probes the edge (h1, h2), h1 the row, h2 < h1.
func (t *TriRows) IsSet(h1, h2 uint32) bool {
	i := t.index(h1, h2)
	return t.words[i>>6]&(uint64(1)<<(i&63)) != 0
}

// Row returns a RowProbe over row h1 (lo <= h1 < hi). The probe is
// indistinguishable from one handed out by a full Tri: Word and
// AndCount mask bits at h2 >= h1 to zero exactly as the monolithic
// packing does, because the slice keeps rows back-to-back with the
// same triangular row lengths.
func (t *TriRows) Row(h1 uint32) RowProbe {
	return RowProbe{words: t.words, base: rowBase(h1) - rowBase(t.lo), h1: h1}
}

// AsTri returns a slice holding rows [0, hi) as the full triangular
// array over hi hubs. With lo = 0 the rebased packing is exactly
// Tri's, so the words are shared, not copied. It panics if lo != 0.
func (t *TriRows) AsTri() *Tri {
	if t.lo != 0 {
		panic("bitarray: AsTri on a row slice that does not start at row 0")
	}
	return &Tri{n: t.hi, words: t.words}
}

// PopCount returns the number of set bits (this slice's hub-to-hub
// edges). The final backing word may carry no row bits, but unset
// padding is always zero.
func (t *TriRows) PopCount() uint64 {
	var n uint64
	for _, w := range t.words {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}
