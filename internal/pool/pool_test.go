package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every task runs exactly once at any width, including widths above the
// task count and the inline widths 0 and 1.
func TestRunEachTaskOnce(t *testing.T) {
	for _, w := range []int{0, 1, 2, runtime.NumCPU() + 3} {
		for _, ntasks := range []int{0, 1, 5, 100} {
			runs := make([]atomic.Int32, ntasks)
			Run(w, ntasks, func(task int) { runs[task].Add(1) })
			for task := range runs {
				if got := runs[task].Load(); got != 1 {
					t.Errorf("w=%d ntasks=%d: task %d ran %d times", w, ntasks, task, got)
				}
			}
		}
	}
}

// At width 1 the tasks run inline, in ascending order.
func TestRunInlineOrder(t *testing.T) {
	var order []int
	Run(1, 4, func(task int) { order = append(order, task) })
	for i, task := range order {
		if task != i {
			t.Fatalf("inline order %v, want ascending", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("ran %d tasks, want 4", len(order))
	}
}
