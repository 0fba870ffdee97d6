// Package report is the one toolkit behind every bpart report, in the
// terminal and as a page: the trace timeline (internal/traceview), the
// audit timeline (internal/partaudit), the comm heatmap (internal/commview),
// the resource charts (internal/resview) and the serving latency page
// (internal/servestats). Printer folds a renderer's per-line error checks
// into one sticky error; Page is the one page lifecycle, so the pages read
// as one family (same chrome, no server, no external assets); WriteFile is
// the create/render/close behind every CLI's -html flag; Bar and Max are
// the scale arithmetic every table and chart repeats.
package report

import (
	"fmt"
	"html"
	"io"
	"os"
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

const style = `<style>
body{font:13px/1.4 system-ui,sans-serif;margin:24px;color:#222}
h1{font-size:18px}h2{font-size:15px;margin-top:28px}
.meta{color:#666}
svg{background:#fafafa;border:1px solid #ddd}
.lbl{font-size:10px;fill:#333}
.warn{color:#b00;font-weight:bold}
.legend span{display:inline-block;padding:1px 6px;margin-right:8px;color:#fff;border-radius:2px}
</style>`

// Page writes one self-contained HTML document to w: the head and a
// heading of title, what body prints, and the tail. The first failed write
// is returned, and nothing is written after it.
func Page(w io.Writer, title string, body func(*Printer)) error {
	p := &Printer{W: w}
	p.Printf("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%s</title>\n%s</head><body>\n<h1>%s</h1>\n",
		html.EscapeString(title), style, html.EscapeString(title))
	body(p)
	p.Printf("</body></html>\n")
	return p.Err
}

// WriteFile creates path and renders a page into it: the -html flag of
// every CLI. A failed render still closes the file, and a failed close —
// the write that a full disk refuses — is reported.
func WriteFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
