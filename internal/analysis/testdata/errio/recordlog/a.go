// Package recordlog seeds errio violations in the record-log writer idiom;
// its path ends in /recordlog so it is in the analyzer's I/O scope, like
// bpart/internal/recordlog. Every log family's write and flush now happens
// in that one package, so an unchecked error there truncates all of them
// silently.
package recordlog

import (
	"bufio"
	"fmt"
	"io"
)

// Writer mimics the whole-line log writer.
type Writer struct {
	bw      *bufio.Writer
	err     error
	every   int
	pending int
}

// LineUnchecked drops the write, newline and cadence-flush errors.
func (w *Writer) LineUnchecked(line []byte) {
	w.bw.Write(line)     // want `error from Write discarded`
	w.bw.WriteByte('\n') // want `error from WriteByte discarded`
	if w.pending++; w.pending >= w.every {
		w.pending = 0
		_ = w.bw.Flush() // want `error from Flush blanked with _`
	}
}

// CloseUnchecked defers the final flush, throwing its error away.
func (w *Writer) CloseUnchecked() {
	defer w.bw.Flush() // want `error from Flush discarded by defer`
}

// PrintfUnchecked is a report printer that forgets its sticky error.
func PrintfUnchecked(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...) // want `error from Fprintf discarded`
}

// Line is the discipline the real Writer uses: the first failure is kept,
// every later line is a no-op against it, and Flush surfaces it.
func (w *Writer) Line(line []byte) {
	if w.err != nil {
		return
	}
	if _, w.err = w.bw.Write(line); w.err != nil {
		return
	}
	if w.err = w.bw.WriteByte('\n'); w.err != nil {
		return
	}
	if w.pending++; w.pending >= w.every {
		w.pending = 0
		w.err = w.bw.Flush()
	}
}

// Flush returns the sticky error.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}
