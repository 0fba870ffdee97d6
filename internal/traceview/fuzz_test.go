package traceview

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead throws arbitrary byte streams at the JSONL trace reader. The
// reader faces files written by a process that may have died mid-line, so
// it must never panic, and its tolerance contract is precise: only the
// final line may be damaged (reported via Truncated), damage anywhere
// earlier is a hard error, and a trace that parses cleanly must survive a
// second pass over the same bytes with identical results.
func FuzzRead(f *testing.F) {
	f.Add([]byte(`{"ts":"2026-08-06T12:00:00.000000001Z","type":"span","name":"partition.stream","dur_us":1500.5,"attrs":{"layer":1,"k":8}}` + "\n"))
	f.Add([]byte(`{"ts":"2026-08-06T12:00:00Z","type":"event","name":"freeze","attrs":{"piece":3}}` + "\n" +
		`{"ts":"2026-08-06T12:00:01Z","type":"error","name":"degraded"}` + "\n"))
	// Torn final line: the only damage Read tolerates.
	f.Add([]byte(`{"ts":"2026-08-06T12:00:00Z","type":"event","name":"a"}` + "\n" + `{"ts":"2026-08-06T12:0`))
	// Interior damage: must be a hard error.
	f.Add([]byte("garbage\n" + `{"ts":"2026-08-06T12:00:00Z","type":"event","name":"a"}` + "\n"))
	f.Add([]byte(`{"ts":"not-a-time","type":"span","name":"x"}` + "\n"))
	f.Add([]byte(`{"ts":"2026-08-06T12:00:00Z","type":"wormhole","name":"x"}` + "\n"))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr == nil {
			t.Fatal("Read returned nil trace with nil error")
		}
		// A clean, untruncated parse must be deterministic: the same bytes
		// parse again to the same records.
		tr2, err2 := Read(bytes.NewReader(data))
		if err2 != nil {
			t.Fatalf("second Read of identical bytes failed: %v", err2)
		}
		if len(tr2.Records) != len(tr.Records) || tr2.Truncated != tr.Truncated {
			t.Fatalf("non-deterministic parse: %d/%v then %d/%v",
				len(tr.Records), tr.Truncated, len(tr2.Records), tr2.Truncated)
		}
		// Truncated means the damaged tail was dropped, so every record the
		// reader did keep came from a complete line; non-blank input lines
		// can't be fewer than kept records.
		lines := 0
		for _, l := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(l) != "" {
				lines++
			}
		}
		if len(tr.Records) > lines {
			t.Fatalf("parsed %d records from %d non-blank lines", len(tr.Records), lines)
		}
		// The derived views must also hold up on anything Read accepts.
		for i := range tr.Records {
			r := &tr.Records[i]
			if r.End().Before(r.Time) && r.DurUS >= 0 {
				t.Fatalf("record %d: End %v before start %v with dur_us %v", i, r.End(), r.Time, r.DurUS)
			}
		}
		// The report must survive anything Read accepts: malformed
		// superstep attrs are a legitimate error, a panic is not, and an
		// error comes before the report's first byte.
		var report bytes.Buffer
		if err := WriteReport(&report, tr); err != nil && report.Len() != 0 {
			t.Fatalf("report failed after %d bytes: %v", report.Len(), err)
		}
	})
}
