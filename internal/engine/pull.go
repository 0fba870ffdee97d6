package engine

import (
	"fmt"
	"sync/atomic"

	"bpart/internal/fault"
	"bpart/internal/graph"
)

// PageRankPull runs PageRank in Gemini's pull mode: every machine computes
// its owned vertices' next ranks by pulling contributions along in-edges
// from the transpose. Communication is mirror-based, as in Gemini: a
// remote in-neighbor's value is fetched once per (machine, vertex) pair
// and cached for the iteration, so the message count is the number of
// mirrors touched rather than the number of cut edges — the reason pull
// mode wins on dense iterations over high-cut partitions.
//
// On the worker pool, each owned vertex's float sum is produced by exactly
// one shard in transpose adjacency order, and mirror stamps advance by
// compare-and-swap so exactly one shard counts each (machine, mirror)
// fetch per iteration — ranks and message counts are bit-identical at any
// worker count.
//
// The returned ranks are identical (up to float association order) to the
// push-mode PageRank.
func (e *Engine) PageRankPull(iters int, damping float64) (*PRResult, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("engine: PageRankPull iters = %d", iters)
	}
	if damping < 0 || damping >= 1 {
		return nil, fmt.Errorf("engine: damping = %v, want [0,1)", damping)
	}
	n := e.g.NumVertices()
	k := e.cl.NumMachines()
	tr := e.transpose()
	ranks := make([]float64, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	next := make([]float64, n)
	// Per-machine mirror stamps: stamp[m][u] == current iteration means
	// u's value is already cached on machine m this iteration.
	stamps := make([][]int32, k)
	for m := range stamps {
		stamps[m] = make([]int32, n)
		for i := range stamps[m] {
			stamps[m][i] = -1
		}
	}
	chunks := shardCount(n)
	dangling := make([]float64, chunks)

	res := &PRResult{}
	it := -1
	if e.flt != nil {
		err := e.flt.BeginRun(fault.Hooks{
			Save: func() any {
				return &prSnap{ranks: append([]float64(nil), ranks...), it: it}
			},
			Restore: func(s any) {
				sn := s.(*prSnap)
				copy(ranks, sn.ranks)
				it = sn.it
				// A restarted machine has lost its mirror caches, and a
				// stale stamp equal to a replayed iteration number would
				// silently suppress that mirror's message. Reset them all.
				for m := range stamps {
					for i := range stamps[m] {
						stamps[m][i] = -1
					}
				}
			},
			Reassign: func(dead int, assignment []int) { e.reassign(assignment) },
		})
		if err != nil {
			return nil, err
		}
	}
	for it = 0; it < iters; it++ {
		// Pre-phase: per-vertex contribution and dangling mass, per-chunk
		// partials reduced in chunk order.
		e.chunkMap(n, func(c, lo, hi int) {
			var dang float64
			for v := lo; v < hi; v++ {
				if d := e.g.OutDegree(graph.VertexID(v)); d > 0 {
					contrib[v] = ranks[v] / float64(d)
				} else {
					contrib[v] = 0
					dang += ranks[v]
				}
			}
			dangling[c] = dang
		})
		var danglingSum float64
		for _, d := range dangling {
			danglingSum += d
		}
		base := (1-damping)/float64(n) + damping*danglingSum/float64(n)

		w := e.cl.NewCounters()
		tasks := e.tasks
		tcs := newTaskCounters(len(tasks), k, w.Pairs != nil)
		e.cl.RunTasks(len(tasks), func(t int) {
			ts, tc := tasks[t], &tcs[t]
			stamp := stamps[ts.m]
			for _, v := range e.owned[ts.m][ts.lo:ts.hi] {
				tc.verts++
				var sum float64
				for _, u := range tr.Neighbors(v) {
					tc.edges++
					// Matrix row = the requesting machine (who is charged
					// for the fetch), column = the mirror's home machine —
					// in pull mode traffic flows toward the row machine.
					if o := e.cl.Owner(u); o != ts.m {
						for {
							cur := atomic.LoadInt32(&stamp[u])
							if cur == int32(it) {
								break // already fetched this iteration
							}
							if atomic.CompareAndSwapInt32(&stamp[u], cur, int32(it)) {
								tc.msgs++
								if tc.prow != nil {
									tc.prow[o]++
								}
								break
							}
						}
					}
					sum += contrib[u]
				}
				next[v] = base + damping*sum
			}
		})
		combineCounters(w, tasks, tcs)
		ranks, next = next, ranks
		res.Stats.Add(e.cl.FinishIteration(w))
		if e.flt != nil && e.flt.EndSuperstep(&res.Stats) == fault.Restored {
			continue
		}
	}
	if e.flt != nil {
		rec := e.flt.Finish(&res.Stats)
		res.Recovery = &rec
	}
	res.Ranks = ranks
	return res, nil
}
