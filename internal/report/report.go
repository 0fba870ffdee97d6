// Package report is the one toolkit behind every bpart text report: the
// trace report (internal/traceview), the audit views (internal/partaudit),
// the comm report (internal/commview) and the serving report
// (internal/servestats).
// Printer folds a renderer's per-line error checks into one sticky error;
// Bar and Max are the scale arithmetic every table repeats.
package report

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

// Max is the largest of at(0), …, at(n-1), floored at zero: the scale a
// bar or chart divides by. It is 0 when n is 0 or no value is positive,
// and NaN values never win. A caller with a higher floor takes
// max(floor, Max(…)).
func Max[T int | int64 | float64](n int, at func(i int) T) T {
	var m T
	for i := 0; i < n; i++ {
		if v := at(i); v > m {
			m = v
		}
	}
	return m
}
