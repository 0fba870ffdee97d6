// Package report seeds errio violations in the report-toolkit idiom; its
// path ends in /report so it is in the analyzer's I/O scope, like
// bpart/internal/report. Every terminal report and HTML page is written
// through that one package, so a write error dropped there truncates all
// of them silently.
package report

import (
	"fmt"
	"io"
)

// Printer mimics the sticky-error printer.
type Printer struct {
	W   io.Writer
	Err error
}

// Printf is the discipline the real Printer uses: the first failure is
// kept and every later write is a no-op against it.
func (p *Printer) Printf(format string, args ...any) {
	if p.Err == nil {
		_, p.Err = fmt.Fprintf(p.W, format, args...)
	}
}

// TailUnchecked closes a page without checking the write — a full disk
// leaves a page with no tail and a zero exit.
func TailUnchecked(w io.Writer) {
	io.WriteString(w, "</body></html>\n") // want `error from WriteString discarded`
}

// Page writes through the Printer and returns its sticky error: clean.
func Page(w io.Writer, body func(*Printer)) error {
	p := &Printer{W: w}
	p.Printf("<h1>%s</h1>\n", "title")
	body(p)
	p.Printf("</body></html>\n")
	return p.Err
}
