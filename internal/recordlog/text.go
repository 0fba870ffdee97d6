package recordlog

import (
	"fmt"
	"io"
	"strings"
)

// Printer folds a report's per-line error checks into one sticky error:
// after the first failed write every Printf is a no-op, and the renderer
// returns Err once at the end.
type Printer struct {
	W   io.Writer
	Err error
}

// Printf formats to W unless an earlier write failed.
func (p *Printer) Printf(format string, args ...any) {
	if p.Err == nil {
		_, p.Err = fmt.Fprintf(p.W, format, args...)
	}
}

// Bar renders v/max as a fixed-width ASCII bar.
func Bar(v, max float64, width int) string {
	if max <= 0 || v < 0 {
		return strings.Repeat(".", width)
	}
	n := int(v/max*float64(width) + 0.5)
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}
