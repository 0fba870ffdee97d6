// Package traceview seeds errio violations in a measurement-log writer
// idiom; its path ends in /traceview so it is in the analyzer's I/O scope,
// like bpart/internal/traceview. A file that silently truncates on a full disk
// turns a real measurement into a partial one with no warning, so a
// measurement log's whole contract is that write failures are sticky and
// surfaced.
package traceview

import (
	"bufio"
	"fmt"
	"io"
)

// EmitUnchecked streams measured records without checking the sink — a
// crashed flush loses the tail of the measurement silently.
func EmitUnchecked(w *bufio.Writer, phase string, wallUS float64) {
	fmt.Fprintf(w, `{"phase":%q,"wall_us":%v}`+"\n", phase, wallUS) // want `error from Fprintf discarded`
	w.Flush()                                                       // want `error from Flush discarded`
}

// CloseUnchecked blanks the final flush — the exact failure Close exists
// to surface.
func CloseUnchecked(w *bufio.Writer, sink io.Writer) {
	_ = w.Flush()                        // want `error from Flush blanked with _`
	_, _ = io.WriteString(sink, "EOF\n") // want `error from WriteString blanked with _`
}

// EmitSticky is the discipline the trace writer uses: the first write or
// flush failure is recorded and every later record is a no-op against it.
func EmitSticky(w *bufio.Writer, phase string, wallUS float64, werr *error) {
	if *werr != nil {
		return
	}
	if _, err := fmt.Fprintf(w, `{"phase":%q,"wall_us":%v}`+"\n", phase, wallUS); err != nil {
		*werr = err
		return
	}
	if err := w.Flush(); err != nil {
		*werr = err
	}
}
