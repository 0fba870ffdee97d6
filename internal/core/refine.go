package core

import (
	"cmp"
	"slices"
	"sort"

	"bpart/internal/graph"
)

// refineMoves counts what the refinement pass did, for telemetry: Shed is
// phase 1 (moving vertices out of over-threshold parts), Pulled is phase 2
// (filling under-threshold parts).
type refineMoves struct {
	Shed   int
	Pulled int
}

// rebalance is the final repair pass of BPart (an addition over the paper,
// see Config.DisableRefine). Phase 1 greedily moves vertices out of parts
// whose |V_i| or |E_i| exceeds (1+ε) of the per-part mean into parts with
// headroom, until no part is over the threshold or no further move is
// possible. Phase 2 is the same pass with the sign flipped: bias only
// punishes maxima, but Jain's fairness (Fig 11) and the per-machine load
// plots (Fig 12) expect every part near the mean, so it pulls mass into
// parts below (1−ε) from donors that stay at or above (1−ε). It returns the
// number of moves made by each phase.
//
// Move selection: to move edge mass, move the donor's highest-degree vertex
// that fits the receiver's edge headroom; to move vertex count, move its
// lowest-degree vertex (cheapest in edge mass). The receiver stays within
// (1+ε) in both dimensions after the move and the donor within its floors,
// so a move never creates a new violation and the total overage strictly
// decreases — the loop terminates.
func rebalance(g *graph.Graph, parts []int, k int, eps float64) refineMoves {
	n := g.NumVertices()
	if n == 0 || k <= 1 {
		return refineMoves{}
	}
	vCount := make([]int, k)
	eCount := make([]int, k)
	for v := 0; v < n; v++ {
		vCount[parts[v]]++
		eCount[parts[v]] += g.OutDegree(graph.VertexID(v))
	}
	targetV := float64(n) / float64(k)
	targetE := float64(g.NumEdges()) / float64(k)
	capV := (1 + eps) * targetV
	// Both phases find no violator and never ask for a member list when
	// every part is already within (1±ε), which is the common case after
	// combining at large k.
	r := &refiner{
		memberLists: memberLists{g: g, parts: parts, vCount: vCount, eCount: eCount, room: int(capV)},
		targetV:     targetV,
		targetE:     targetE,
		eps:         eps,
		capV:        capV,
		capE:        (1 + eps) * targetE,
		stuck:       make([]bool, k),
		order:       make([]int, 0, k-1),
	}
	shed := r.phase(+1, 0, 0)
	return refineMoves{Shed: shed, Pulled: r.phase(-1, (1-eps)*targetV, (1-eps)*targetE)}
}

// refiner is one rebalance pass: the member lists and counts it moves
// vertices between, the balance band, and scratch reused by every move.
type refiner struct {
	memberLists
	targetV, targetE, eps float64
	capV, capE            float64
	stuck                 []bool // parts whose last move failed since any move succeeded
	order                 []int  // peer order of the current move
}

// phase repeatedly relieves the part that violates the band worst in the
// direction of sign — over (1+ε) when shedding (+1), under (1−ε) when
// pulling (−1) — by one move, until no part violates or every violator is
// stuck. Donors keep at least floorV vertices and floorE arcs. It returns
// the number of moves made.
func (r *refiner) phase(sign int, floorV, floorE float64) int {
	s := float64(sign)
	done := 0
	clear(r.stuck)
	for moves := 0; moves < len(r.parts); moves++ {
		// Worst violator by normalized overage (or deficit).
		worst, worstScore, worstDim := -1, r.eps, 'V'
		for p, stuck := range r.stuck {
			if stuck {
				continue
			}
			nv := s * (float64(r.vCount[p]) - r.targetV) / r.targetV
			var ne float64
			if r.targetE > 0 {
				ne = s * (float64(r.eCount[p]) - r.targetE) / r.targetE
			}
			if nv > worstScore {
				worst, worstScore, worstDim = p, nv, 'V'
			}
			if ne > worstScore {
				worst, worstScore, worstDim = p, ne, 'E'
			}
		}
		if worst == -1 {
			break
		}
		if !r.move(sign, worst, worstDim, floorV, floorE) {
			r.stuck[worst] = true
			continue
		}
		done++
		// A successful move may unstick other parts (their peers gained
		// headroom indirectly); re-examine everything.
		clear(r.stuck)
	}
	return done
}

// move moves a single vertex to relieve part p in dimension dim and reports
// whether it did. Shedding (sign +1) sends one of p's vertices to a peer,
// lightest peer in dim first; pulling (sign −1) takes one from a peer,
// heaviest first. The receiver stays within the (1+ε) caps, and the donor
// keeps floorV vertices, floorE arcs and at least one vertex.
func (r *refiner) move(sign, p int, dim rune, floorV, floorE float64) bool {
	vc, ec := r.vCount, r.eCount
	primary, secondary := vc, ec
	if dim == 'E' {
		primary, secondary = ec, vc
	}
	// Peers in index order, then sorted by load in the violated dimension.
	r.order = r.order[:0]
	for q := range vc {
		if q != p {
			r.order = append(r.order, q)
		}
	}
	slices.SortFunc(r.order, func(a, b int) int {
		if c := cmp.Compare(primary[a], primary[b]); c != 0 {
			return sign * c
		}
		return sign * cmp.Compare(secondary[a], secondary[b])
	})
	for _, q := range r.order {
		from, to := p, q
		if sign < 0 {
			from, to = q, p
		}
		if float64(vc[to]+1) > r.capV || vc[from] <= 1 || float64(vc[from]-1) < floorV {
			continue
		}
		headroomE := int(r.capE) - ec[to]
		var idx int
		if dim == 'E' {
			// Largest donor vertex that fits the receiver and keeps the
			// donor at its (truncated) edge floor.
			idx = r.firstWithin(from, min(headroomE, ec[from]-int(floorE)))
		} else {
			// Smallest-degree vertex; it must still fit the receiver.
			var d int
			if idx, d = r.lowest(from); d > headroomE || float64(ec[from]-d) < floorE {
				idx = -1
			}
		}
		if idx >= 0 {
			r.transfer(from, idx, to)
			return true
		}
	}
	return false
}

// memberLists holds, per part, its vertices by out-degree descending (equal
// degrees by ID descending): the lowest-degree member, which a vertex-count
// move takes, is the last element, and a low-degree arrival lands near the
// tail, so both are short moves. Nothing is built until a move first asks for
// a list, and a part is sorted only when a move first looks at its members.
// Every list is a window of one backing array with room for max(its count,
// room) members, and a receiver never grows past room, so no move allocates.
type memberLists struct {
	g              *graph.Graph
	parts          []int
	vCount, eCount []int // kept current by transfer
	room           int
	lists          [][]graph.VertexID
	sorted         []bool
	keys           []uint64 // sort scratch, shared by every part
}

// before is the list order: higher degree first, then higher ID.
func (m *memberLists) before(a, b graph.VertexID) bool {
	if da, db := m.g.OutDegree(a), m.g.OutDegree(b); da != db {
		return da > db
	}
	return a > b
}

// of returns part p's sorted list.
func (m *memberLists) of(p int) []graph.VertexID {
	if m.lists == nil {
		m.lists = make([][]graph.VertexID, len(m.vCount))
		m.sorted = make([]bool, len(m.vCount))
		total := 0
		for _, c := range m.vCount {
			total += max(c, m.room)
		}
		backing := make([]graph.VertexID, total)
		for q, c := range m.vCount {
			c = max(c, m.room)
			m.lists[q], backing = backing[:0:c], backing[c:]
		}
		m.keys = make([]uint64, 0, slices.Max(m.vCount))
		for v, q := range m.parts {
			m.lists[q] = append(m.lists[q], graph.VertexID(v))
		}
	}
	if !m.sorted[p] {
		m.sorted[p] = true
		// One integer key per member, degree<<32 | ID: ascending keys,
		// written back from the tail, are the list order.
		list := m.lists[p]
		keys := m.keys[:0]
		for _, v := range list {
			keys = append(keys, uint64(m.g.OutDegree(v))<<32|uint64(v))
		}
		slices.Sort(keys)
		for i, key := range keys {
			list[len(list)-1-i] = graph.VertexID(uint32(key))
		}
		m.keys = keys
	}
	return m.lists[p]
}

// lowest returns the index and degree of part p's lowest-degree member.
func (m *memberLists) lowest(p int) (idx, degree int) {
	ms := m.of(p)
	return len(ms) - 1, m.g.OutDegree(ms[len(ms)-1])
}

// firstWithin returns the index in part p's list of its highest-degree member
// whose degree is at most budget, or -1 if there is none.
func (m *memberLists) firstWithin(p, budget int) int {
	ms := m.of(p)
	idx := sort.Search(len(ms), func(i int) bool { return m.g.OutDegree(ms[i]) <= budget })
	if idx == len(ms) {
		return -1
	}
	return idx
}

// transfer moves member idx of part from into part to, keeping both lists
// sorted and the assignment and per-part counts current.
func (m *memberLists) transfer(from, idx, to int) {
	src := m.of(from)
	v := src[idx]
	m.lists[from] = append(src[:idx], src[idx+1:]...)
	dst := m.of(to)
	ins := sort.Search(len(dst), func(i int) bool { return m.before(v, dst[i]) })
	m.lists[to] = slices.Insert(dst, ins, v)

	d := m.g.OutDegree(v)
	m.parts[v] = to
	m.vCount[from]--
	m.vCount[to]++
	m.eCount[from] -= d
	m.eCount[to] += d
}
