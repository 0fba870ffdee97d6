// Package htmlpage holds the shared chrome of every bpart HTML artifact —
// the trace timeline (internal/traceview), the audit timeline
// (internal/partaudit), the comm heatmap (internal/commview), the resource
// charts (internal/resview) and the serving latency page
// (internal/servestats) use the same self-contained style so the
// artifacts read as one family: no server, no external assets.
package htmlpage

import (
	"fmt"
	"html"
	"io"
	"os"
)

const style = `<style>
body{font:13px/1.4 system-ui,sans-serif;margin:24px;color:#222}
h1{font-size:18px}h2{font-size:15px;margin-top:28px}
.meta{color:#666}
svg{background:#fafafa;border:1px solid #ddd}
.lbl{font-size:10px;fill:#333}
.warn{color:#b00;font-weight:bold}
.legend span{display:inline-block;padding:1px 6px;margin-right:8px;color:#fff;border-radius:2px}
</style>`

// Start writes the document head and the page heading.
func Start(w io.Writer, title string) error {
	_, err := fmt.Fprintf(w, "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%s</title>\n%s</head><body>\n<h1>%s</h1>\n",
		html.EscapeString(title), style, html.EscapeString(title))
	return err
}

// End closes a document opened by Start.
func End(w io.Writer) error {
	_, err := io.WriteString(w, "</body></html>\n")
	return err
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
