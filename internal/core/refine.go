package core

import (
	"slices"
	"sort"

	"bpart/internal/graph"
	"bpart/internal/metrics"
)

// refineMoves counts what the refinement pass did, for telemetry: Shed is
// phase 1 (moving vertices out of over-threshold parts), Pulled is phase 2
// (filling under-threshold parts).
type refineMoves struct {
	Shed   int
	Pulled int
}

// rebalance is the final repair pass of BPart (an addition over the paper,
// see Config.DisableRefine). It greedily moves vertices out of parts whose
// |V_i| or |E_i| exceeds (1+ε) of the per-part mean into parts with
// headroom, until no part is over the threshold or no further move is
// possible. It returns the number of moves made by each phase.
//
// Move selection: to shed edge mass, move the highest-degree vertex that
// fits the receiver's edge headroom; to shed vertex count, move the
// lowest-degree vertex (cheapest in edge mass). The receiver is the part
// lightest in the violated dimension that stays within (1+ε) in both
// dimensions after the move, so a move never creates a new violation and
// the total overage strictly decreases — the loop terminates.
func rebalance(g *graph.Graph, parts []int, k int, eps float64) refineMoves {
	var done refineMoves
	n := g.NumVertices()
	if n == 0 || k <= 1 {
		return done
	}
	targetV := float64(n) / float64(k)
	targetE := float64(g.NumEdges()) / float64(k)

	vCount := make([]int, k)
	eCount := make([]int, k)
	for v := 0; v < n; v++ {
		vCount[parts[v]]++
		eCount[parts[v]] += g.OutDegree(graph.VertexID(v))
	}
	// Both phases below find no violator and never ask for a member list
	// when every part is already within (1±ε), which is the common case
	// after combining at large k.
	members := &memberLists{g: g, parts: parts, vCount: vCount, eCount: eCount}

	overV := func(p int) float64 { return float64(vCount[p]) - targetV }
	overE := func(p int) float64 {
		if metrics.IsZero(targetE) {
			return 0
		}
		return float64(eCount[p]) - targetE
	}
	capV := (1 + eps) * targetV
	capE := (1 + eps) * targetE

	// Phase 1: shed overages.
	stuck := make([]bool, k)
	for moves := 0; moves < n; moves++ {
		// Worst violator by normalized overage.
		worst, worstScore, worstDim := -1, eps, 'V'
		for p := 0; p < k; p++ {
			if stuck[p] {
				continue
			}
			nv := overV(p) / targetV
			var ne float64
			if targetE > 0 {
				ne = overE(p) / targetE
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
		if !moveOne(worst, worstDim, vCount, eCount, members, capV, capE) {
			stuck[worst] = true
			continue
		}
		done.Shed++
		// A successful move may unstick other parts (their receivers
		// gained headroom indirectly); re-examine everything.
		for p := range stuck {
			stuck[p] = false
		}
	}

	// Phase 2: fill deficits. Bias only punishes maxima, but Jain's
	// fairness (Fig 11) and the per-machine load plots (Fig 12) expect
	// every part near the mean, so pull mass into parts below (1−ε).
	floorV := (1 - eps) * targetV
	floorE := (1 - eps) * targetE
	for p := range stuck {
		stuck[p] = false
	}
	for moves := 0; moves < n; moves++ {
		worst, worstScore, worstDim := -1, eps, 'V'
		for p := 0; p < k; p++ {
			if stuck[p] {
				continue
			}
			nv := -overV(p) / targetV
			var ne float64
			if targetE > 0 {
				ne = -overE(p) / targetE
			}
			if nv > worstScore {
				worst, worstScore, worstDim = p, nv, 'V'
			}
			if ne > worstScore {
				worst, worstScore, worstDim = p, ne, 'E'
			}
		}
		if worst == -1 {
			return done
		}
		if !pullOne(worst, worstDim, vCount, eCount, members, capV, capE, floorV, floorE) {
			stuck[worst] = true
			continue
		}
		done.Pulled++
		for p := range stuck {
			stuck[p] = false
		}
	}
	return done
}

// memberLists holds, per part, its vertices by out-degree descending (equal
// degrees by ID descending): the lowest-degree member, which a vertex-count
// move takes, is the last element, and a low-degree arrival lands near the
// tail, so both are short moves. Nothing is built until a move first asks for
// a list, and a part is sorted only when it first gives or receives a vertex.
type memberLists struct {
	g              *graph.Graph
	parts          []int
	vCount, eCount []int // kept current by transfer
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
		for q, c := range m.vCount {
			m.lists[q] = make([]graph.VertexID, 0, c)
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

// pullOne moves a single vertex from the heaviest suitable donor into the
// deficient part p. A donor is suitable when it stays at or above the
// (1−ε) floors after the move, so pulling never creates a new deficit; the
// receiver is capped at (1+ε) so it cannot become a violator either.
func pullOne(p int, dim rune, vCount, eCount []int, members *memberLists,
	capV, capE, floorV, floorE float64) bool {
	k := len(vCount)
	if float64(vCount[p]+1) > capV {
		return false
	}
	order := make([]int, 0, k-1)
	for q := 0; q < k; q++ {
		if q != p {
			order = append(order, q)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if dim == 'E' {
			if eCount[a] != eCount[b] {
				return eCount[a] > eCount[b]
			}
			return vCount[a] > vCount[b]
		}
		if vCount[a] != vCount[b] {
			return vCount[a] > vCount[b]
		}
		return eCount[a] > eCount[b]
	})
	headroomE := int(capE) - eCount[p]
	for _, q := range order {
		if vCount[q] <= 1 || float64(vCount[q]-1) < floorV {
			continue
		}
		var idx int
		if dim == 'E' {
			// Largest donor vertex that fits p and keeps q above its
			// edge floor.
			budget := headroomE
			if keep := eCount[q] - int(floorE); keep < budget {
				budget = keep
			}
			idx = members.firstWithin(q, budget)
		} else {
			var d int
			idx, d = members.lowest(q)
			if d > headroomE || float64(eCount[q]-d) < floorE {
				idx = -1
			}
		}
		if idx < 0 {
			continue
		}
		members.transfer(q, idx, p)
		return true
	}
	return false
}

// moveOne moves a single vertex out of part p to relieve dimension dim.
// It reports whether a move happened.
func moveOne(p int, dim rune, vCount, eCount []int, members *memberLists, capV, capE float64) bool {
	if vCount[p] <= 1 {
		return false // never empty a part
	}
	k := len(vCount)
	// Candidate receivers ordered by load in the violated dimension.
	order := make([]int, 0, k-1)
	for q := 0; q < k; q++ {
		if q != p {
			order = append(order, q)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if dim == 'E' {
			if eCount[a] != eCount[b] {
				return eCount[a] < eCount[b]
			}
			return vCount[a] < vCount[b]
		}
		if vCount[a] != vCount[b] {
			return vCount[a] < vCount[b]
		}
		return eCount[a] < eCount[b]
	})
	for _, q := range order {
		if float64(vCount[q]+1) > capV {
			continue
		}
		headroomE := int(capE) - eCount[q]
		var idx int
		if dim == 'E' {
			// Largest-degree vertex whose degree fits the receiver.
			idx = members.firstWithin(p, headroomE)
		} else {
			// Smallest-degree vertex; it must still fit the receiver.
			var d int
			if idx, d = members.lowest(p); d > headroomE {
				idx = -1
			}
		}
		if idx < 0 {
			continue
		}
		members.transfer(p, idx, q)
		return true
	}
	return false
}
