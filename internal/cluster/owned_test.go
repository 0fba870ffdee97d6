package cluster

import (
	"slices"
	"testing"
)

// checkOwned compares every machine's list against one built by scanning
// the assignment, and requires each list to be capped at its length.
func checkOwned(t *testing.T, c *Cluster, assignment []int) {
	t.Helper()
	want := make([][]uint32, c.NumMachines())
	for v, m := range assignment {
		want[m] = append(want[m], uint32(v))
	}
	for m := range want {
		got := c.Owned(m)
		if len(got) != len(want[m]) || !slices.Equal(got, want[m]) {
			t.Fatalf("Owned(%d) = %v, want %v", m, got, want[m])
		}
		if cap(got) != len(got) {
			t.Fatalf("Owned(%d): cap %d, len %d; an append would write into the next machine's list", m, cap(got), len(got))
		}
	}
}

// skewed places n vertices on k machines unevenly and out of ID order,
// leaving the last machine empty.
func skewed(n, k int) []int {
	a := make([]int, n)
	for v := range a {
		a[v] = (v * 7 % 11) % (k - 1)
	}
	return a
}

func TestOwnedAfterNewAndRehome(t *testing.T) {
	const n, k = 200, 5
	a := skewed(n, k)
	c := mustNew(t, a, k)
	checkOwned(t, c, a)

	// Empty machine 2 onto its neighbours, then retire it.
	moved := slices.Clone(a)
	for v, m := range moved {
		if m == 2 {
			moved[v] = v % 2
		}
	}
	if err := c.Rehome(moved); err != nil {
		t.Fatal(err)
	}
	checkOwned(t, c, moved)
	if err := c.MarkDead(2); err != nil {
		t.Fatal(err)
	}
	// A refused Rehome changes no list.
	bad := slices.Clone(moved)
	bad[0] = 2
	if err := c.Rehome(bad); err == nil {
		t.Fatal("Rehome onto a dead machine accepted")
	}
	checkOwned(t, c, moved)
}

// Appending to one machine's list must copy it: the windows share one
// array, and an uncapped window would overwrite the next machine's first
// vertex.
func TestOwnedAppendCopies(t *testing.T) {
	const n, k = 64, 4
	a := skewed(n, k)
	c := mustNew(t, a, k)
	for m := 0; m < k; m++ {
		_ = append(c.Owned(m), ^uint32(0))
	}
	checkOwned(t, c, a)
}
