// Package servestats is the serving-layer half of the repo's observability
// story: cmd/bpartd answers placement lookups, k-hop neighborhood queries
// and seeded random-walk requests against a loaded graph + assignment, and
// this package records what serving actually cost — per-endpoint and
// per-part log-bucketed latency histograms (telemetry.Histogram), windowed
// p50/p95/p99/p999 snapshots, in-flight gauges, and a versioned JSONL
// request log whose reader tolerates exactly one torn final line (the
// traceview contract). The per-part report ties tail latency back
// to the partition's size/cut balance, which is the paper's serving-side
// claim made measurable.
//
// Like telemetry, everything here lives outside the determinism boundary:
// core/partition/cluster/engine/walk never import it, wall-clock use is
// confined to the Recorder, and with recording disabled (a nil *Recorder)
// the serving hot path allocates no per-request stats records. What *is*
// deterministic is the request stream itself: a seeded Workload produces
// the same requests and per-part routing on every run, so CI can pin the
// routing trace while latencies float.
package servestats

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bpart/internal/graph"
	"bpart/internal/xrand"
)

// View is one immutable assignment version. Handlers grab the current view
// once per request and answer entirely against it, which is what makes
// every response attributable to exactly one version across a hot-swap.
type View struct {
	version int
	k       int
	parts   []int
}

// Version is the view's monotone swap index (1 for the assignment the
// backend was built with).
func (v *View) Version() int { return v.version }

// K is the view's part count.
func (v *View) K() int { return v.k }

// Part returns the part owning vertex id, or -1 if id is out of range.
func (v *View) Part(id graph.VertexID) int {
	if int(id) >= len(v.parts) {
		return -1
	}
	return v.parts[id]
}

// Parts returns a copy of the view's assignment vector.
func (v *View) Parts() []int {
	return append([]int(nil), v.parts...)
}

// Backend owns the graph and the atomically swappable assignment view, and
// answers the three request classes bpartd serves. All query methods are
// safe for concurrent use; Swap publishes a new view without blocking
// in-flight readers.
type Backend struct {
	g       *graph.Graph
	view    atomic.Pointer[View]
	scratch sync.Pool // of *khopScratch, filled on first use; see KHop
}

// NewBackend wraps g with assignment parts over k parts (version 1). The
// assignment is copied, must cover every vertex, and every entry must lie
// in [0, k).
func NewBackend(g *graph.Graph, parts []int, k int) (*Backend, error) {
	v, err := newView(g, parts, k, 1)
	if err != nil {
		return nil, err
	}
	b := &Backend{g: g}
	b.view.Store(v)
	return b, nil
}

func newView(g *graph.Graph, parts []int, k int, version int) (*View, error) {
	if k <= 0 {
		return nil, fmt.Errorf("servestats: k = %d, want > 0", k)
	}
	if len(parts) != g.NumVertices() {
		return nil, fmt.Errorf("servestats: assignment covers %d vertices, graph has %d", len(parts), g.NumVertices())
	}
	cp := append([]int(nil), parts...)
	for i, p := range cp {
		if p < 0 || p >= k {
			return nil, fmt.Errorf("servestats: vertex %d assigned to part %d, want [0,%d)", i, p, k)
		}
	}
	return &View{version: version, k: k, parts: cp}, nil
}

// Graph returns the served graph.
func (b *Backend) Graph() *graph.Graph { return b.g }

// View returns the current assignment view.
func (b *Backend) View() *View { return b.view.Load() }

// Swap atomically publishes a new assignment, returning the new view. The
// old view stays valid for requests that already hold it; nothing is
// dropped or rerouted mid-flight.
func (b *Backend) Swap(parts []int, k int) (*View, error) {
	for {
		old := b.view.Load()
		v, err := newView(b.g, parts, k, old.version+1)
		if err != nil {
			return nil, err
		}
		if b.view.CompareAndSwap(old, v) {
			return v, nil
		}
	}
}

// khopScratch is one KHop call's working memory. Between calls every bit
// of visited is zero.
type khopScratch struct {
	visited []uint64         // one bit per vertex of the served graph
	queue   []graph.VertexID // src, then every vertex reached, in discovery order
}

// KHop runs a bounded BFS from src and reports the number of vertices
// within hops hops (src excluded) plus up to limit of them in
// deterministic CSR discovery order.
//
// Its working memory is a khopScratch drawn from the backend's pool: a
// visited bitset sized once from the served graph and a single BFS queue
// that doubles as the discovery-order record the sample is copied from, so
// a query costs the arcs it scans and allocates only the sample it returns.
// The scratch depends on the graph alone, which never changes under a
// Backend — only the assignment view does, and KHop never reads it — so a
// pooled scratch is swap-safe by construction, and a call holds its scratch
// exclusively between Get and Put, so KHop still reads no shared mutable
// state. Before the scratch goes back, the bits this call set are cleared
// by walking the queue: O(visited), with no epoch counter to wrap. The pool
// is bounded by the requests in flight and drained by the GC, so a queue
// that grew for one hops=8 hub query is retained until the next GC at most.
func (b *Backend) KHop(src graph.VertexID, hops, limit int) (count int, sample []graph.VertexID) {
	n := b.g.NumVertices()
	if int(src) >= n || hops <= 0 {
		return 0, nil
	}
	s, _ := b.scratch.Get().(*khopScratch)
	if s == nil {
		s = &khopScratch{visited: make([]uint64, (n+63)/64)}
	}
	visited, queue := s.visited, append(s.queue[:0], src)
	visited[src>>6] |= uint64(1) << (src & 63)
	// queue[head:levelEnd] is the frontier at depth d; what it discovers
	// is appended past levelEnd and becomes the next one.
	for d, head := 0, 0; d < hops && head < len(queue); d++ {
		for levelEnd := len(queue); head < levelEnd; head++ {
			for _, w := range b.g.Neighbors(queue[head]) {
				word, bit := w>>6, uint64(1)<<(w&63)
				if visited[word]&bit == 0 {
					visited[word] |= bit
					queue = append(queue, w)
				}
			}
		}
	}
	count = len(queue) - 1
	if m := min(limit, count); m > 0 {
		sample = append(sample, queue[1:1+m]...)
	}
	for _, v := range queue {
		visited[v>>6] = 0
	}
	s.queue = queue
	b.scratch.Put(s)
	return count, sample
}

// Walk runs a seeded random walk of steps steps from src: uniform neighbor
// choice, with restart probability alpha back to src (alpha 0 is a plain
// walk, alpha > 0 the PPR-style variant). A walker stuck on a sink vertex
// restarts when alpha > 0 and otherwise stops. The walk is a pure function
// of (graph, src, steps, alpha, seed) — the backend holds no walker state —
// so the same request replays identically regardless of concurrency.
func (b *Backend) Walk(src graph.VertexID, steps int, alpha float64, seed uint64) (end graph.VertexID, visited int) {
	if int(src) >= b.g.NumVertices() {
		return src, 0
	}
	rng := xrand.New(seed ^ (uint64(src)+1)*0x9E3779B97F4A7C15)
	cur := src
	for i := 0; i < steps; i++ {
		if alpha > 0 && rng.Float64() < alpha {
			cur = src
			visited++
			continue
		}
		ns := b.g.Neighbors(cur)
		if len(ns) == 0 {
			if alpha <= 0 {
				break
			}
			cur = src
			visited++
			continue
		}
		cur = ns[rng.Intn(len(ns))]
		visited++
	}
	return cur, visited
}
