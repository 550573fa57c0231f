package core

import (
	"fmt"
	"slices"
	"time"

	"lotustc/internal/bitarray"
	"lotustc/internal/graph"
	"lotustc/internal/sched"
)

// VertexRange is a contiguous range [Lo, Hi) of relabeled vertex IDs.
// The sharded execution path partitions the relabeled ID space into
// such ranges; because LOTUS relabeling puts all hubs at the lowest
// IDs, a range's hub part (IDs < HubCount) and non-hub part are each
// contiguous too.
type VertexRange struct {
	Lo, Hi uint32
}

// Len returns the number of vertices in the range.
func (r VertexRange) Len() int { return int(r.Hi) - int(r.Lo) }

// Contains reports whether relabeled ID v falls in the range.
func (r VertexRange) Contains(v uint32) bool { return v >= r.Lo && v < r.Hi }

// LotusShard is the LOTUS structure restricted to one vertex range of
// the relabeled ID space: the HE and NHE rows of every v in Range
// (indexed locally by v - Range.Lo) and the H2H rows of the range's
// hubs. Neighbour IDs inside rows stay global relabeled IDs — the
// same IDs the monolithic structure uses — which is what makes the
// sharded count bit-identical per class: hubness is still "ID <
// HubCount" and every triangle is attributed to the same apex row.
type LotusShard struct {
	// Range is the relabeled-ID range this shard holds rows for.
	Range VertexRange
	// HubCount is the global hub count (shared by every shard of a
	// grid; it is a property of the relabeling, not of the shard).
	HubCount uint32
	// H2H holds the hub-to-hub rows [Range.Lo, min(Range.Hi,
	// HubCount)) — the shard's slice of the monolithic bit array. The
	// per-shard hub budget: each shard pays only for its own hubs'
	// rows, so a p-way grid splits the quadratic H2H footprint across
	// p cache-sized slices.
	H2H *bitarray.TriRows
	// HE and NHE hold the hub-/non-hub-neighbour rows of the range's
	// vertices, locally indexed (row v lives at v - Range.Lo).
	HE  *HE16
	NHE *NHE32
	// PreprocessTime is the wall time of this shard's build.
	PreprocessTime time.Duration

	numVertices int // global |V|, for cross-checks
}

// NumVertices returns the global vertex count of the graph the shard
// was built from.
func (s *LotusShard) NumVertices() int { return s.numVertices }

// HENeighbors returns v's hub-neighbour list (ascending, global IDs).
// v must be in Range.
func (s *LotusShard) HENeighbors(v uint32) []uint16 { return s.HE.Neighbors(v - s.Range.Lo) }

// NHENeighbors returns v's non-hub-neighbour list (ascending, global
// IDs). v must be in Range.
func (s *LotusShard) NHENeighbors(v uint32) []uint32 { return s.NHE.Neighbors(v - s.Range.Lo) }

// H2HRow returns the probe cursor for hub row h1, which must satisfy
// Range.Lo <= h1 < min(Range.Hi, HubCount).
func (s *LotusShard) H2HRow(h1 uint32) bitarray.RowProbe { return s.H2H.Row(h1) }

// TopologyBytes returns the shard's structure footprint under the
// Table 7 accounting: two 8-byte index arrays over the local rows,
// the H2H slice, 2 bytes per HE edge and 4 per NHE edge.
func (s *LotusShard) TopologyBytes() int64 {
	idx := 2 * 8 * int64(s.Range.Len()+1)
	return idx + s.H2H.SizeBytes() + 2*s.HE.NumEdges() + 4*s.NHE.NumEdges()
}

// TryPreprocessRange builds the LOTUS structure restricted to the
// vertex range r, given the global relabeling ra (as produced by
// reorder.Lotus with the same Options — the caller owns computing it
// once and sharing it across a grid's shards). It is Algorithm 2 with
// the row writes filtered to vNew in [r.Lo, r.Hi): the same two-pass
// walk over the original vertices, the same hub/non-hub split, the
// same per-row sort. TryPreprocess runs it over [0, n) for the flat
// structure, so each shard row is byte-identical to the
// corresponding flat row.
func TryPreprocessRange(g *graph.Graph, opt Options, ra []uint32, r VertexRange) (*LotusShard, error) {
	if err := checkPreprocessInput(g); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if len(ra) != n {
		return nil, fmt.Errorf("core: relabeling has %d entries for %d vertices", len(ra), n)
	}
	if r.Lo > r.Hi || int(r.Hi) > n {
		return nil, fmt.Errorf("core: vertex range [%d, %d) out of bounds for %d vertices", r.Lo, r.Hi, n)
	}
	t0 := time.Now()
	pool := opt.Pool
	if pool == nil {
		pool = sched.NewPool(0)
	}
	hubCount := uint32(opt.EffectiveHubCount(n))
	m := r.Len()

	// Pass 1: per-local-row HE and NHE degrees. The walk still visits
	// every original vertex — the relabeling scatters a range's rows
	// across the whole original ID space — but only in-range rows
	// count.
	heCnt := make([]int64, m+1)
	nheCnt := make([]int64, m+1)
	pool.For(n, 0, func(_, start, end int) {
		for vOld := start; vOld < end; vOld++ {
			if pool.Cancelled() {
				return
			}
			vNew := ra[vOld]
			if !r.Contains(vNew) {
				continue
			}
			var he, nhe int64
			for _, uOld := range g.Neighbors(uint32(vOld)) {
				uNew := ra[uOld]
				if uNew >= vNew {
					continue
				}
				if uNew < hubCount {
					he++
				} else {
					nhe++
				}
			}
			heCnt[vNew-r.Lo+1] = he
			nheCnt[vNew-r.Lo+1] = nhe
		}
	})
	for v := 0; v < m; v++ {
		heCnt[v+1] += heCnt[v]
		nheCnt[v+1] += nheCnt[v]
	}
	he := &HE16{offsets: heCnt, nbrs: make([]uint16, heCnt[m])}
	nhe := &NHE32{offsets: nheCnt, nbrs: make([]uint32, nheCnt[m])}
	hubHi := min(r.Hi, hubCount)
	h2h := bitarray.NewTriRows(min(r.Lo, hubHi), hubHi)

	// Pass 2: fill, set the shard's H2H rows, sort each row.
	pool.For(n, 0, func(_, start, end int) {
		for vOld := start; vOld < end; vOld++ {
			if pool.Cancelled() {
				return
			}
			vNew := ra[vOld]
			if !r.Contains(vNew) {
				continue
			}
			local := vNew - r.Lo
			hw := he.offsets[local]
			nw := nhe.offsets[local]
			for _, uOld := range g.Neighbors(uint32(vOld)) {
				uNew := ra[uOld]
				if uNew >= vNew {
					continue
				}
				if uNew < hubCount {
					he.nbrs[hw] = uint16(uNew)
					hw++
					if vNew < hubCount {
						h2h.Set(vNew, uNew)
					}
				} else {
					nhe.nbrs[nw] = uNew
					nw++
				}
			}
			slices.Sort(he.nbrs[he.offsets[local]:hw])
			slices.Sort(nhe.nbrs[nhe.offsets[local]:nw])
		}
	})

	return &LotusShard{
		Range:          r,
		HubCount:       hubCount,
		H2H:            h2h,
		HE:             he,
		NHE:            nhe,
		PreprocessTime: time.Since(t0),
		numVertices:    n,
	}, nil
}

// Validate checks the shard's structural invariants: sorted rows, ID
// ranges consistent with the shard's range and the global hub count,
// hub rows with empty NHE, and the H2H slice agreeing with the HE
// rows of the range's hubs. Intended for tests.
func (s *LotusShard) Validate() error {
	if s.Range.Lo > s.Range.Hi {
		return fmt.Errorf("shard range [%d, %d) inverted", s.Range.Lo, s.Range.Hi)
	}
	for v := s.Range.Lo; v < s.Range.Hi; v++ {
		henb := s.HENeighbors(v)
		for i, h := range henb {
			if uint32(h) >= s.HubCount || uint32(h) >= v {
				return fmt.Errorf("vertex %d: HE neighbour %d out of range", v, h)
			}
			if i > 0 && henb[i-1] >= h {
				return fmt.Errorf("vertex %d: HE unsorted", v)
			}
			if v < s.HubCount && !s.H2H.IsSet(v, uint32(h)) {
				return fmt.Errorf("H2H missing hub edge (%d,%d)", v, h)
			}
		}
		nhenb := s.NHENeighbors(v)
		if v < s.HubCount && len(nhenb) != 0 {
			return fmt.Errorf("hub %d has non-empty NHE row", v)
		}
		for i, u := range nhenb {
			if u < s.HubCount || u >= v {
				return fmt.Errorf("vertex %d: NHE neighbour %d out of range", v, u)
			}
			if i > 0 && nhenb[i-1] >= u {
				return fmt.Errorf("vertex %d: NHE unsorted", v)
			}
		}
	}
	var hubEdges uint64
	for v := s.H2H.Lo(); v < s.H2H.Hi(); v++ {
		hubEdges += uint64(s.HE.Degree(v - s.Range.Lo))
	}
	if got := s.H2H.PopCount(); got != hubEdges {
		return fmt.Errorf("H2H popcount %d != hub-to-hub edge count %d", got, hubEdges)
	}
	return nil
}
