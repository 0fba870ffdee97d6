package engine

import (
	"slices"
	"sync/atomic"

	"bpart/internal/cluster"
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
	pr, err := e.newPageRank(iters, damping)
	if err != nil {
		return nil, err
	}
	n := e.g.NumVertices()
	k := e.cl.NumMachines()
	tr := e.g.In()
	contrib := pr.contrib
	next := make([]float64, n)
	// Per-machine mirror stamps: stamp[m][u] == current iteration means
	// u's value is already cached on machine m this iteration.
	stamps := make([][]int32, k)
	for m := range stamps {
		stamps[m] = make([]int32, n)
	}
	clearStamps := func() {
		for m := range stamps {
			for i := range stamps[m] {
				stamps[m][i] = -1
			}
		}
	}
	clearStamps()

	step := func(it int) (cluster.IterationStats, bool) {
		base := e.contributions(pr)
		w := e.cl.NewCounters()
		tasks := e.tasks
		tcs := newTaskCounters(len(tasks), k, w.Pairs != nil)
		e.cl.RunTasks(len(tasks), func(t int) {
			ts, tc := tasks[t], &tcs[t]
			stamp := stamps[ts.m]
			for _, v := range e.cl.Owned(ts.m)[ts.lo:ts.hi] {
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
		pr.ranks, next = next, pr.ranks
		return e.cl.FinishIteration(w), it+1 == iters
	}
	checkpoint := func() func() {
		saved := slices.Clone(pr.ranks)
		return func() {
			copy(pr.ranks, saved)
			// A restarted machine has lost its mirror caches, and a
			// stale stamp equal to a replayed iteration number would
			// silently suppress that mirror's message. Reset them all.
			clearStamps()
		}
	}
	res := &PRResult{}
	res.Stats, res.Recovery = e.run(step, checkpoint)
	res.Ranks = pr.ranks
	return res, nil
}
