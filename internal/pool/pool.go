// Package pool is the repository's one parallel primitive: a fixed set of
// goroutines draining a range of tasks through an atomic cursor. It is a
// leaf, so packages below internal/cluster (internal/graph) fan out with
// the same loop the cluster's superstep pool runs.
package pool

import (
	"sync"
	"sync/atomic"
)

// Run executes fn(task) for every task in [0, ntasks) on min(w, ntasks)
// goroutines and returns when all have finished. With w <= 1 (or one
// task) the tasks run inline on the calling goroutine in ascending order;
// otherwise the goroutines drain the tasks through an atomic cursor, so
// scheduling order is arbitrary. Callers must therefore confine each
// task's writes to task-private state (or a disjoint range of a shared
// array) and combine results in fixed task order afterwards — that
// contract is what keeps parallel runs bit-identical to sequential ones.
func Run(w, ntasks int, fn func(task int)) {
	w = min(w, ntasks)
	if w <= 1 {
		for t := 0; t < ntasks; t++ {
			fn(t)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				t := int(cursor.Add(1)) - 1
				if t >= ntasks {
					return
				}
				fn(t)
			}
		}()
	}
	wg.Wait()
}
