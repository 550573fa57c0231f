package intersect

import (
	"sort"
	"testing"
)

// decodeSorted turns fuzz bytes into a strictly ascending uint32 list
// by accumulating byte deltas (+1 so the list is duplicate-free), and
// a parallel uint16 list truncated to the 16-bit ID space.
func decodeSorted(data []byte) ([]uint32, []uint16) {
	a32 := make([]uint32, 0, len(data))
	var x uint32
	for _, d := range data {
		x += uint32(d) + 1
		a32 = append(a32, x)
	}
	var a16 []uint16
	for _, v := range a32 {
		if v <= 0xffff {
			a16 = append(a16, uint16(v))
		}
	}
	return a32, a16
}

func widen(a []uint16) []uint32 {
	out := make([]uint32, len(a))
	for i, v := range a {
		out[i] = uint32(v)
	}
	return out
}

// FuzzIntersectAgreement asserts every intersection kernel — the
// 32-bit set and the 16-bit set — computes the same count on
// arbitrary sorted inputs. Wired into `make fuzz`.
func FuzzIntersectAgreement(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{0, 0, 0, 0}, []byte{0})
	f.Add([]byte{255, 255, 255}, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, a16 := decodeSorted(da)
		b, b16 := decodeSorted(db)
		want := refCount(a, b)
		h := NewHashSet(len(a))
		kernels32 := map[string]uint64{
			"Merge":     Merge(a, b),
			"Binary":    Binary(a, b),
			"Galloping": Galloping(a, b),
			"Hash":      Hash(h, a, b),
		}
		for name, got := range kernels32 {
			if got != want {
				t.Errorf("%s(%v, %v) = %d, want %d", name, a, b, got, want)
			}
		}
		want16 := refCount(widen(a16), widen(b16))
		kernels16 := map[string]uint64{
			"Merge16":     Merge16(a16, b16),
			"Galloping16": Galloping16(a16, b16),
		}
		for name, got := range kernels16 {
			if got != want16 {
				t.Errorf("%s(%v, %v) = %d, want %d", name, a16, b16, got, want16)
			}
		}
		// LowerBound against the sort.Search oracle on the same lists.
		for _, x := range append(append([]uint32{0, 1 << 31}, a...), b...) {
			if got, want := LowerBound(b, x), sort.Search(len(b), func(i int) bool { return b[i] >= x }); got != want {
				t.Errorf("LowerBound(%v, %d) = %d, want %d", b, x, got, want)
			}
		}
	})
}
