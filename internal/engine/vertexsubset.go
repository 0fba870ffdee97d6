package engine

import (
	"slices"

	"bpart/internal/graph"
)

// VertexSubset is a Ligra-style frontier: a set of vertices over a
// universe [0, n) held either sparsely (a sorted slice of members) or
// densely (a membership bitmap), with automatic switching between the two
// as the set grows or shrinks. The representation is an execution detail,
// never an output: both forms iterate members in ascending vertex order,
// so the kernel's counters and results are identical whichever one a
// frontier happens to be in.
type VertexSubset struct {
	n     int
	count int
	// Exactly one of the two is the active representation.
	dense  []bool           // non-nil in dense mode
	sparse []graph.VertexID // sorted ascending in sparse mode
}

// denseRatio is the switch threshold: a subset goes dense when it holds
// more than n/denseRatio members, sparse again below. Ligra uses |V|/20
// for its edge-map threshold; /10 keeps the bitmap worthwhile for the
// membership tests the pull direction does per in-edge.
const denseRatio = 10

// NewVertexSubset returns the empty subset over [0, n).
func NewVertexSubset(n int) *VertexSubset {
	return &VertexSubset{n: n}
}

// FullVertexSubset returns the subset holding every vertex of [0, n).
func FullVertexSubset(n int) *VertexSubset {
	return fullSubset(make([]bool, n))
}

// fullSubset returns the subset holding every vertex of [0, len(bitmap)),
// taking ownership of bitmap, whose contents it overwrites.
func fullSubset(bitmap []bool) *VertexSubset {
	for i := range bitmap {
		bitmap[i] = true
	}
	return &VertexSubset{n: len(bitmap), count: len(bitmap), dense: bitmap}
}

// SubsetFromVertices builds a subset holding a copy of members, which must
// be sorted ascending and duplicate-free. The representation is chosen by
// the usual threshold.
func SubsetFromVertices(n int, members []graph.VertexID) *VertexSubset {
	return subsetOf(n, slices.Clone(members), nil)
}

// subsetOf builds a subset that takes ownership of members (sorted
// ascending, duplicate-free) and, should the subset go dense, of bitmap: a
// |V| slice whose contents it overwrites, or nil to allocate one. The
// representation is chosen by the usual threshold.
func subsetOf(n int, members []graph.VertexID, bitmap []bool) *VertexSubset {
	s := &VertexSubset{n: n, count: len(members), sparse: members}
	if s.count*denseRatio > n {
		s.toDense(bitmap)
	}
	return s
}

// toDense switches to the bitmap representation, writing it into d (a |V|
// slice whose contents are overwritten) or, when d is nil, into a new one.
func (s *VertexSubset) toDense(d []bool) {
	if s.dense != nil {
		return
	}
	if d == nil {
		d = make([]bool, s.n)
	} else {
		clear(d)
	}
	for _, v := range s.sparse {
		d[v] = true
	}
	s.dense = d
	s.sparse = nil
}

func (s *VertexSubset) toSparse() {
	if s.dense == nil {
		return
	}
	sp := make([]graph.VertexID, 0, s.count)
	for v, in := range s.dense {
		if in {
			sp = append(sp, graph.VertexID(v))
		}
	}
	s.sparse = sp
	s.dense = nil
}

// N returns the universe size.
func (s *VertexSubset) N() int { return s.n }

// Len returns the member count.
func (s *VertexSubset) Len() int { return s.count }

// IsDense reports whether the bitmap representation is active.
func (s *VertexSubset) IsDense() bool { return s.dense != nil }

// Contains reports membership of v.
func (s *VertexSubset) Contains(v graph.VertexID) bool {
	if s.dense != nil {
		return s.dense[v]
	}
	// Binary search the sorted sparse form.
	lo, hi := 0, len(s.sparse)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.sparse[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.sparse) && s.sparse[lo] == v
}

// Bitmap returns a dense membership view of the subset, converting if
// needed. The returned slice is the subset's own storage — read-only for
// callers, valid until the subset is mutated.
func (s *VertexSubset) Bitmap() []bool {
	s.toDense(nil)
	return s.dense
}

// Vertices returns the members in ascending order, converting if needed.
// The returned slice is the subset's own storage — read-only for callers.
func (s *VertexSubset) Vertices() []graph.VertexID {
	s.toSparse()
	return s.sparse
}

// subsetMembers returns a fresh copy of s's members in ascending order,
// without disturbing the active representation (checkpoint Save hooks use
// it so snapshotting never perturbs the run).
func subsetMembers(s *VertexSubset) []graph.VertexID {
	out := make([]graph.VertexID, 0, s.Len())
	s.ForEach(func(v graph.VertexID) { out = append(out, v) })
	return out
}

// ForEach calls fn for every member in ascending vertex order, whichever
// representation is active.
func (s *VertexSubset) ForEach(fn func(v graph.VertexID)) {
	if s.dense != nil {
		for v, in := range s.dense {
			if in {
				fn(graph.VertexID(v))
			}
		}
		return
	}
	for _, v := range s.sparse {
		fn(v)
	}
}
