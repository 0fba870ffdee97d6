package partaudit_test

import (
	"bytes"
	"testing"

	"bpart/internal/partaudit"
	"bpart/internal/traceview"
)

// FuzzReadLog throws arbitrary byte streams at the audit's read path —
// traceview.Read, then Trace.Audit, then every renderer — mirroring
// traceview's FuzzRead. Framing and torn-tail tolerance are the trace
// reader's; what this target holds is the audit decode: an audit.* event
// with a malformed attr is an error, never a panic, and anything that
// decodes cleanly decodes again to the same audit and renders without
// panicking.
func FuzzReadLog(f *testing.F) {
	const ts = `{"ts":"2026-08-06T10:00:00Z","type":"event","name":`
	f.Add([]byte(ts + `"audit.header","attrs":{"scheme":"BPart","k":8,"n":100,"m":400,"sample_every":64,"hubs":16,"hub_degree":5,"window":1024}}` + "\n"))
	f.Add([]byte(ts + `"audit.window","attrs":{"layer":0,"index":0,"placed":4,"piece_v":[2,2],"piece_e":[2,1],"v_bias":0,"e_bias":0.3,"cut_ratio":0.5,"resolved_arcs":2,"cut_arcs":1}}` + "\n" +
		ts + `"audit.decision","attrs":{"layer":1,"pos":0,"vertex":7,"degree":3,"piece":1,"cause":"greedy","runner_up":0,"gap":0.5,"cands":[{"piece":0,"aff":1,"pen":0.5,"score":0.5},{"piece":1,"aff":2,"pen":1,"score":1}]}}` + "\n"))
	f.Add([]byte(ts + `"audit.combine","attrs":{"layer":1,"round":0,"a_pieces":[0],"a_v":1,"a_e":2,"b_pieces":[1],"b_v":3,"b_e":4}}` + "\n" +
		ts + `"audit.layer","attrs":{"layer":1,"pieces":-2,"target_v":1,"target_e":2,"epsilon":0.1,"groups":[{"pieces":[0,1,9],"v":4,"e":6,"final":0}]}}` + "\n" +
		ts + `"audit.final","attrs":{"k":2,"v":[2],"e":[1,2,3],"v_bias":0.01,"e_bias":0.02,"cut_ratio":0.4,"predicted_v":[1,1],"predicted_e":[2]}}` + "\n"))
	// A malformed attr, an unknown audit name, a second header: errors.
	f.Add([]byte(ts + `"audit.window","attrs":{"piece_v":"two"}}` + "\n"))
	f.Add([]byte(ts + `"audit.wormhole"}` + "\n"))
	f.Add([]byte(ts + `"audit.header"}` + "\n" + ts + `"audit.header"}` + "\n"))
	// Torn final line after a usable prefix: the only damage tolerated.
	f.Add([]byte(ts + `"audit.header"}` + "\n" + ts + `"audit.win`))
	// Interior damage and whole-file garbage: hard errors.
	f.Add([]byte("garbage\n" + ts + `"audit.header"}` + "\n"))
	f.Add([]byte("not an audit log\n"))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		read := func() (*partaudit.Audit, error) {
			tr, err := traceview.Read(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return tr.Audit()
		}
		log, err := read()
		if err != nil {
			return
		}
		if log == nil {
			t.Fatal("Audit returned a nil audit with a nil error")
		}
		// The same bytes must decode again to the same audit.
		log2, err2 := read()
		if err2 != nil {
			t.Fatalf("second decode of identical bytes failed: %v", err2)
		}
		if log2.Truncated != log.Truncated ||
			len(log2.Decisions) != len(log.Decisions) ||
			len(log2.Windows) != len(log.Windows) ||
			len(log2.Merges) != len(log.Merges) ||
			len(log2.Layers) != len(log.Layers) ||
			(log2.Header == nil) != (log.Header == nil) ||
			(log2.Final == nil) != (log.Final == nil) {
			t.Fatal("non-deterministic decode of identical bytes")
		}
		// Every renderer must survive anything Audit accepts: an
		// unsampled vertex is an error, a panic is not.
		vertex := 0
		if len(log.Decisions) > 0 {
			vertex = log.Decisions[0].Vertex
		}
		var sink bytes.Buffer
		_ = partaudit.WriteExplain(&sink, log, vertex)
		_ = partaudit.WriteTimeline(&sink, log)
		_ = partaudit.WriteCombine(&sink, log)
	})
}
