package resview

import (
	"bytes"
	"testing"

	"bpart/internal/traceview"
)

// FuzzRead throws arbitrary byte streams at the read path of `tracestat
// resources` — traceview.Read, then this package's decode of the res_*
// attrs. It must never panic, must derive the same views from the same
// bytes twice, every decoded number must be one the trace writer could have written
// (non-negative), and anything the decode accepts must render.
func FuzzRead(f *testing.F) {
	valid := validLine(0, "partition.stream", 123.5, `"k":8,`)
	lap := `{"ts":"2026-08-20T12:00:01Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"res_wall_us":10,` + resAttrs + `}}` + "\n"
	run := validLine(2, "walk.run", 50, `"kind":"simple",`)
	f.Add([]byte(valid))
	f.Add([]byte(valid + lap + run))
	// Torn final line after a valid prefix: tolerated.
	f.Add([]byte(valid + `{"ts":"2026-08-20T12:0`))
	// Interior damage and all-garbage first lines: hard errors.
	f.Add([]byte("garbage\n" + valid))
	f.Add([]byte("garbage\n"))
	// What the trace writer never writes: a schema-v1 line, a string for a number,
	// a negative lap, a negative span; and a plain trace record.
	f.Add([]byte(`{"v":1,"type":"resource","seq":0,"kind":"span","phase":"a","wall_us":1}` + "\n"))
	f.Add([]byte(`{"ts":"2026-08-20T12:00:00Z","type":"span","name":"a","dur_us":1,"attrs":{"res_allocs":"1"}}` + "\n"))
	f.Add([]byte(`{"ts":"2026-08-20T12:00:00Z","type":"event","name":"a","attrs":{"res_wall_us":-1}}` + "\n"))
	f.Add([]byte(`{"ts":"2026-08-20T12:00:00Z","type":"span","name":"a","dur_us":-1,"attrs":{"res_allocs":1}}` + "\n"))
	f.Add([]byte(`{"ts":"2026-08-20T12:00:00Z","type":"span","name":"a","dur_us":1,"attrs":{"k":8}}` + "\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := traceview.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		probed := 0
		for i := range tr.Records {
			u, err := decode(&tr.Records[i])
			if err != nil {
				if _, err := Summarize(tr); err == nil {
					t.Fatalf("record %d fails the decode but the log summarizes", i)
				}
				return
			}
			if u == nil {
				continue
			}
			probed++
			for key, v := range u {
				if v < 0 {
					t.Fatalf("record %d: negative %s %v escaped the decode", i, key, v)
				}
			}
		}
		// The derived views must hold up on anything the decode accepts.
		s, err := Summarize(tr)
		if err != nil {
			t.Fatalf("every record decodes but Summarize fails: %v", err)
		}
		if records(s) != probed || len(s) > probed {
			t.Fatalf("%d summaries over %d records from %d probed records", len(s), records(s), probed)
		}
		var text, text2 bytes.Buffer
		if err := WriteReport(&text, tr); err != nil {
			t.Fatalf("report on accepted log: %v", err)
		}
		if err := WriteReport(&text2, tr); err != nil || !bytes.Equal(text.Bytes(), text2.Bytes()) {
			t.Fatalf("second report of the same trace differs (%v)", err)
		}
	})
}
