package walk

import (
	"sync"
	"sync/atomic"

	"bpart/internal/graph"
	"bpart/internal/xrand"
)

// Static edge-weighted ("biased") walks are KnightKing's bread and butter:
// each outgoing edge carries a static weight and the walker picks the next
// hop proportionally. KnightKing pre-builds per-vertex alias tables so a
// biased step stays O(1); this implementation does the same, building
// tables lazily per vertex (hubs are hit constantly, cold vertices maybe
// never) and sharing them across machines — they are immutable once built.
//
// Weights are synthetic and deterministic, mirroring internal/engine's
// SSSP weights: weight(u,v) = 1 + hash(u,v) mod 8.

// BiasedWalk selects static-weight transitions; configure it through
// Config.Kind.
const BiasedWalk Kind = Node2Vec + 1

// StepWeight returns the deterministic synthetic weight of arc (u,v) in
// [1, 8].
func StepWeight(u, v graph.VertexID) float64 {
	z := (uint64(u) << 32) | uint64(v)
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return float64((z^(z>>31))%8) + 1
}

// aliasCache lazily builds and shares per-vertex alias tables. A built
// table is published in its vertex's slot and never replaced, so the hot
// path (hub vertices) is one atomic load; the lock serializes builds only.
// The |V| slots themselves are made by init, which an engine calls only
// when a BiasedWalk Run starts: no other walk reads them.
type aliasCache struct {
	g      *graph.Graph
	once   sync.Once
	mu     sync.Mutex
	tables []atomic.Pointer[xrand.Alias]
}

func newAliasCache(g *graph.Graph) *aliasCache {
	c := &aliasCache{g: g}
	c.init()
	return c
}

// init makes the slots, once. Goroutines that read them must start after
// an init call returns.
func (c *aliasCache) init() {
	c.once.Do(func() { c.tables = make([]atomic.Pointer[xrand.Alias], c.g.NumVertices()) })
}

// table returns v's alias table, building it on first use (nil for an
// edgeless vertex).
func (c *aliasCache) table(v graph.VertexID) *xrand.Alias {
	// The length test stands in for the index's own bounds check; it fails
	// only before init, for a caller outside Run.
	if int(v) < len(c.tables) {
		if t := c.tables[v].Load(); t != nil {
			return t
		}
	}
	c.init()
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.tables[v].Load(); t != nil {
		return t
	}
	ns := c.g.Neighbors(v)
	if len(ns) == 0 {
		return nil
	}
	ws := make([]float64, len(ns))
	for i, u := range ns {
		ws[i] = StepWeight(v, u)
	}
	t := xrand.NewAlias(ws)
	c.tables[v].Store(t)
	return t
}
