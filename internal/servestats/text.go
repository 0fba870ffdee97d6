package servestats

import (
	"fmt"
	"io"

	"bpart/internal/report"
)

// WriteText renders the report as the terminal tables `tracestat serve`
// prints: per-endpoint percentiles, per-part share/tail, the version
// census, and (when attribution is available) the pressure table tying
// request share to part size. Errors from w are returned — the report may
// be piped somewhere that matters.
func WriteText(w io.Writer, rep *Report, attrib []Attribution) error {
	ew := &report.Printer{W: w}
	ew.Printf("Serving report: %d requests, %d routed", rep.Total, rep.Routed)
	if rep.Truncated {
		ew.Printf("  [log truncated: torn final line]")
	}
	ew.Printf("\n\nPer endpoint:\n")
	ew.Printf("  %-8s %8s %6s %10s %10s %10s %10s\n",
		"endpoint", "requests", "errors", "p50", "p95", "p99", "p999")
	for _, e := range rep.Endpoints {
		ew.Printf("  %-8s %8d %6d %10s %10s %10s %10s\n",
			e.Endpoint, e.Count, e.Errors,
			FormatUS(e.P50), FormatUS(e.P95), FormatUS(e.P99), FormatUS(e.P999))
	}
	ew.Printf("\nPer part:\n")
	ew.Printf("  %-5s %8s %7s %10s %10s %10s\n",
		"part", "requests", "share", "p50", "p99", "p999")
	for _, p := range rep.Parts {
		ew.Printf("  %-5d %8d %6.1f%% %10s %10s %10s\n",
			p.Part, p.Count, 100*p.Share,
			FormatUS(p.P50), FormatUS(p.P99), FormatUS(p.P999))
	}
	ew.Printf("\nVersions:\n")
	for _, v := range rep.Versions {
		ew.Printf("  v%-3d %8d requests\n", v.Version, v.Count)
	}
	if len(attrib) > 0 {
		ew.Printf("\nTail attribution (request share vs part size):\n")
		ew.Printf("  %-5s %8s %7s %8s %9s %10s\n",
			"part", "requests", "share", "v-share", "pressure", "p99")
		for _, a := range attrib {
			ew.Printf("  %-5d %8d %6.1f%% %7.1f%% %8.2fx %10s\n",
				a.Part, a.Requests, 100*a.Share, 100*a.VShare, a.Pressure, FormatUS(a.P99))
		}
	}
	return ew.Err
}

// FormatUS renders a microsecond latency human-first: the one latency
// format of the serving reports, server side (WriteText) and client side
// (cmd/loadgen).
func FormatUS(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.1fms", us/1e3)
	default:
		return fmt.Sprintf("%.0fµs", us)
	}
}
