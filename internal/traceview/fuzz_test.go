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
// second pass over the same bytes with identical results. The seeds carry
// res_* deltas too, so the span table's decode of them is fuzzed with the
// report.
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
	// Spans with res_* deltas, and a lap event of a log recorded before the
	// deltas rode on spans alone.
	res := `"res_allocs":10,"res_alloc_bytes":4096,"res_heap_bytes":1000,"res_gc_cycles":1,"res_gc_pause_us":5,"res_goroutines":2`
	span := `{"ts":"2026-08-20T12:00:00Z","type":"span","name":"partition.stream","dur_us":123.5,"attrs":{"k":8,` + res + `}}` + "\n"
	lap := `{"ts":"2026-08-20T12:00:01Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"res_wall_us":10,` + res + `}}` + "\n"
	f.Add([]byte(span))
	f.Add([]byte(span + lap + span))
	f.Add([]byte(span + `{"ts":"2026-08-20T12:0`))
	f.Add([]byte("garbage\n" + span))
	f.Add([]byte("garbage\n"))
	// What the trace writer never writes: a schema-v1 line, a string for a
	// number, a negative lap, a negative span; and a plain trace record.
	f.Add([]byte(`{"v":1,"type":"resource","seq":0,"kind":"span","phase":"a","wall_us":1}` + "\n"))
	f.Add([]byte(`{"ts":"2026-08-20T12:00:00Z","type":"span","name":"a","dur_us":1,"attrs":{"res_allocs":"1"}}` + "\n"))
	f.Add([]byte(`{"ts":"2026-08-20T12:00:00Z","type":"event","name":"a","attrs":{"res_wall_us":-1}}` + "\n"))
	f.Add([]byte(`{"ts":"2026-08-20T12:00:00Z","type":"span","name":"a","dur_us":-1,"attrs":{"res_allocs":1}}` + "\n"))
	f.Add([]byte(`{"ts":"2026-08-20T12:00:00Z","type":"span","name":"a","dur_us":1,"attrs":{"k":8}}` + "\n"))
	// A resource log with no record at all: blank lines only, nothing,
	// bytes that are not JSON.
	f.Add([]byte("\n\n"))
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
		// superstep or res_* attrs are a legitimate error, a panic is not,
		// and an error comes before the report's first byte. A report it
		// renders, it renders the same twice.
		var report, again bytes.Buffer
		if err := WriteReport(&report, tr); err != nil {
			if report.Len() != 0 {
				t.Fatalf("report failed after %d bytes: %v", report.Len(), err)
			}
			return
		}
		if err := WriteReport(&again, tr); err != nil || !bytes.Equal(report.Bytes(), again.Bytes()) {
			t.Fatalf("second report of the same trace differs (%v)", err)
		}
		// Every res_* value of an accepted trace is one the writer could
		// have written: a non-negative int64 or float.
		for i, r := range tr.Records {
			for key, v := range r.Attrs {
				if f, ok := v.(float64); strings.HasPrefix(key, "res_") && (!ok || f < 0 || f >= 1<<63) {
					t.Fatalf("record %d: %s = %v escaped the decode", i, key, v)
				}
			}
		}
	})
}
