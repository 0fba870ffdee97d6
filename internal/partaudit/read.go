package partaudit

import (
	"encoding/json"
	"fmt"
	"io"

	"bpart/internal/recordlog"
)

// Log is a fully parsed audit log, in record order within each kind.
type Log struct {
	Header    *Header
	Decisions []Decision
	Windows   []Window
	Merges    []Merge
	Layers    []LayerRecord
	Final     *Final
	// Truncated reports a torn final line (the audited run crashed
	// mid-write); the parsed prefix is complete and usable, mirroring
	// traceview.Trace.Truncated.
	Truncated bool
}

// DecisionsFor returns every sampled decision for the given vertex, in
// layer/stream order.
func (l *Log) DecisionsFor(vertex int) []Decision {
	var out []Decision
	for _, d := range l.Decisions {
		if d.Vertex == vertex {
			out = append(out, d)
		}
	}
	return out
}

// LastWindow returns the final window of the given layer's stream (ok =
// false if that layer emitted none).
func (l *Log) LastWindow(layer int) (Window, bool) {
	for i := len(l.Windows) - 1; i >= 0; i-- {
		if l.Windows[i].Layer == layer {
			return l.Windows[i], true
		}
	}
	return Window{}, false
}

// PieceToPart returns the final piece→part mapping of the given layer
// (-1 = dissolved into the next layer), reconstructed from the layer's
// group records.
func (l *Log) PieceToPart(layer int) ([]int, bool) {
	for _, lr := range l.Layers {
		if lr.Layer != layer {
			continue
		}
		if lr.Pieces < 0 {
			// Malformed record (hand-edited or fuzzed log); there is no
			// mapping to reconstruct.
			return nil, false
		}
		m := make([]int, lr.Pieces)
		for i := range m {
			m[i] = -1
		}
		for _, grp := range lr.Groups {
			for _, p := range grp.Pieces {
				if p >= 0 && p < len(m) {
					m[p] = grp.Final
				}
			}
		}
		return m, true
	}
	return nil, false
}

// ReadLog parses a JSONL audit log. Like traceview.Read, a damaged or
// incomplete final line (a run that crashed mid-write) is tolerated and
// flagged via Log.Truncated; damage anywhere earlier is a hard error,
// since silently skipping interior records would skew the timeline.
func ReadLog(r io.Reader) (*Log, error) {
	log := &Log{}
	var err error
	log.Truncated, err = recordlog.Scan(r, "partaudit", "audit", log.parseLine)
	if err != nil {
		return nil, err
	}
	return log, nil
}

// ReadLogFile parses the audit log at path.
func ReadLogFile(path string) (*Log, error) { return recordlog.ReadFile(path, ReadLog) }

func (l *Log) parseLine(line []byte) error {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return err
	}
	switch probe.Type {
	case "audit_header":
		var h Header
		if err := json.Unmarshal(line, &h); err != nil {
			return err
		}
		if h.Version != Version {
			return fmt.Errorf("unsupported audit schema version %d (reader supports %d)", h.Version, Version)
		}
		if l.Header == nil {
			l.Header = &h
		}
	case "decision":
		var d Decision
		if err := json.Unmarshal(line, &d); err != nil {
			return err
		}
		l.Decisions = append(l.Decisions, d)
	case "window":
		var w Window
		if err := json.Unmarshal(line, &w); err != nil {
			return err
		}
		l.Windows = append(l.Windows, w)
	case "combine":
		var m Merge
		if err := json.Unmarshal(line, &m); err != nil {
			return err
		}
		l.Merges = append(l.Merges, m)
	case "layer":
		var lr LayerRecord
		if err := json.Unmarshal(line, &lr); err != nil {
			return err
		}
		l.Layers = append(l.Layers, lr)
	case "final":
		var f Final
		if err := json.Unmarshal(line, &f); err != nil {
			return err
		}
		l.Final = &f
	case "error":
		// A degraded unencodable record; nothing to recover.
	default:
		return fmt.Errorf("unknown audit record type %q", probe.Type)
	}
	return nil
}
