package experiments

import "testing"

// The experiment must not leak capture into the memoized shared state:
// a later experiment reusing the memoized graph/partition builds its own
// engines, and fresh clusters default to capture off.
func TestCommMatrixDoesNotPerturbOthers(t *testing.T) {
	opt := Options{Scale: testScale}
	before, err := Fig13(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CommMatrix(opt); err != nil {
		t.Fatal(err)
	}
	after, err := Fig13(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range before.Rows {
		for j, cell := range row {
			if after.Rows[i][j] != cell {
				t.Fatalf("Fig13 cell [%d][%d] changed after CommMatrix: %q -> %q", i, j, cell, after.Rows[i][j])
			}
		}
	}
}
