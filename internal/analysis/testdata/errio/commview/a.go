// Package commview seeds errio violations in the comm-matrix report
// idiom; its path ends in /commview so it is in the analyzer's I/O scope,
// like bpart/internal/commview, which reads nothing itself (the matrices
// arrive decoded, as traceview.Superstep.Pairs) and only renders. A heatmap
// or matrix report that silently truncates on a full disk misreports the
// communication topology.
package commview

import (
	"fmt"
	"io"
)

// Matrix is a stand-in for a summed src→dst comm matrix.
type Matrix [][]int64

// WriteRowsUnchecked streams the matrix rows without checking the sink —
// the tail of the report goes missing on a closed pipe.
func WriteRowsUnchecked(w io.Writer, m Matrix) {
	for i, row := range m {
		fmt.Fprintf(w, "M%d %v\n", i, row) // want `error from Fprintf discarded`
	}
	_, _ = io.WriteString(w, "done\n") // want `error from WriteString blanked with _`
}

// WriteRowsChecked is the sticky-error discipline the real report writers
// use: first failure wins, everything after is a no-op.
func WriteRowsChecked(w io.Writer, m Matrix) error {
	for i, row := range m {
		if _, err := fmt.Fprintf(w, "M%d %v\n", i, row); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "done\n")
	return err
}
