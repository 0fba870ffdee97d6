package partaudit

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadLog throws arbitrary byte streams at the JSONL audit-log reader,
// mirroring traceview's FuzzRead. The reader faces files written by a
// process that may have died mid-line, so it must never panic, and its
// tolerance contract is precise: only the final line may be damaged — and
// only when a usable prefix precedes it (flagged via Truncated); damage
// anywhere earlier, or a file with no usable records at all, is a hard
// error. Anything that parses cleanly must survive a second pass over the
// same bytes with identical results.
func FuzzReadLog(f *testing.F) {
	f.Add([]byte(`{"type":"audit_header","version":1,"scheme":"BPart","k":8,"n":100,"m":400,"sample_every":64,"hubs":16,"hub_degree":5,"window":1024}` + "\n"))
	f.Add([]byte(`{"type":"window","layer":0,"index":0,"placed":4,"piece_v":[2,2],"piece_e":[2,1],"v_bias":0,"e_bias":0.3,"cut_ratio":0.5,"resolved_arcs":2,"cut_arcs":1}` + "\n" +
		`{"type":"decision","layer":1,"stream_pos":0,"vertex":7,"degree":3,"chosen":1,"candidates":[{"piece":0,"score":1.5,"gain":1,"balance":0.5},{"piece":1,"score":2,"gain":2,"balance":0}]}` + "\n"))
	f.Add([]byte(`{"type":"combine","layer":2,"left":0,"right":1,"final":-1}` + "\n" +
		`{"type":"final","v_bias":0.01,"e_bias":0.02,"cut_ratio":0.4}` + "\n"))
	f.Add([]byte(`{"type":"error","reason":"degraded"}` + "\n"))
	// Torn final line after a usable prefix: the only damage ReadLog tolerates.
	f.Add([]byte(`{"type":"audit_header","version":1}` + "\n" + `{"type":"win`))
	// Interior damage: must be a hard error.
	f.Add([]byte("garbage\n" + `{"type":"audit_header","version":1}` + "\n"))
	// Whole-file garbage: must be a hard error, not Truncated+empty.
	f.Add([]byte("not an audit log\n"))
	f.Add([]byte(`{"type":"wormhole"}` + "\n"))
	f.Add([]byte(`{"type":"audit_header","version":99}` + "\n"))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		if log == nil {
			t.Fatal("ReadLog returned nil log with nil error")
		}
		// The same bytes must parse again to the same log.
		log2, err2 := ReadLog(bytes.NewReader(data))
		if err2 != nil {
			t.Fatalf("second ReadLog of identical bytes failed: %v", err2)
		}
		if log2.Truncated != log.Truncated ||
			len(log2.Decisions) != len(log.Decisions) ||
			len(log2.Windows) != len(log.Windows) ||
			len(log2.Merges) != len(log.Merges) ||
			len(log2.Layers) != len(log.Layers) {
			t.Fatal("non-deterministic parse of identical bytes")
		}
		// Every record the reader kept came from one complete line, and a
		// torn tail is only ever tolerated after an accepted line.
		lines := 0
		for _, l := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(l) != "" {
				lines++
			}
		}
		if log.Truncated && lines < 2 {
			t.Fatal("ReadLog produced Truncated with no accepted line before the tail")
		}
		records := len(log.Decisions) + len(log.Windows) + len(log.Merges) + len(log.Layers)
		if log.Header != nil {
			records++
		}
		if log.Final != nil {
			records++
		}
		if records > lines {
			t.Fatalf("parsed %d records from %d non-blank lines", records, lines)
		}
		// The derived views must hold up on anything ReadLog accepts.
		for _, d := range log.Decisions {
			got := log.DecisionsFor(d.Vertex)
			if len(got) == 0 {
				t.Fatalf("DecisionsFor(%d) lost a decision", d.Vertex)
			}
		}
		for _, lr := range log.Layers {
			if m, ok := log.PieceToPart(lr.Layer); ok && len(m) != lr.Pieces {
				t.Fatalf("PieceToPart(%d) = %d entries, layer has %d pieces", lr.Layer, len(m), lr.Pieces)
			}
		}
		// Every renderer must survive anything ReadLog accepts: an
		// unsampled vertex is an error, a panic is not.
		vertex := 0
		if len(log.Decisions) > 0 {
			vertex = log.Decisions[0].Vertex
		}
		_ = WriteExplain(io.Discard, log, vertex)
		_ = WriteTimeline(io.Discard, log)
		_ = WriteCombine(io.Discard, log)
		_ = WriteTimelineHTML(io.Discard, log)
	})
}
