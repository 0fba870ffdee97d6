package commview

import (
	"bytes"
	"testing"

	"bpart/internal/traceview"
)

// FuzzRead throws arbitrary byte streams at the read path of `tracestat
// comm` — traceview.Read, then traceview.Supersteps — and feeds whatever
// that accepts to this package: it must never panic, must decode the same
// bytes to the same steps twice, every accepted matrix must be square and
// shaped to its machine count, and anything accepted must summarize and
// render.
func FuzzRead(f *testing.F) {
	valid := `{"ts":"2026-08-07T12:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"time_us":1,"compute":[1,1],"comm":[1,1],"waiting":[0,0],"steps":[0,0],"edges":[4,4],"vertices":[1,1],"messages":[1,0],"pairs":[[0,1],[0,0]]}}` + "\n"
	f.Add([]byte(valid))
	// Superstep without pairs: skipped, not an error.
	f.Add([]byte(`{"ts":"2026-08-07T12:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":1,"time_us":1,"compute":[1],"comm":[1],"waiting":[0],"steps":[0],"edges":[0],"vertices":[1],"messages":[0]}}` + "\n"))
	// Malformed matrices: hard errors.
	f.Add([]byte(`{"ts":"2026-08-07T12:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"time_us":1,"compute":[1,1],"comm":[1,1],"waiting":[0,0],"steps":[0,0],"edges":[0,0],"vertices":[1,1],"messages":[0,0],"pairs":[[0]]}}` + "\n"))
	f.Add([]byte(`{"ts":"2026-08-07T12:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"pairs":"garbage"}}` + "\n"))
	// Torn final line after a valid prefix: tolerated.
	f.Add([]byte(valid + `{"ts":"2026-08-07T12:0`))
	// Interior damage and all-garbage first lines: hard errors.
	f.Add([]byte("garbage\n" + valid))
	f.Add([]byte("garbage\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		all, truncated, err := decode(string(data))
		if err != nil {
			return
		}
		all2, truncated2, err2 := decode(string(data))
		if err2 != nil {
			t.Fatalf("second decode of identical bytes failed: %v", err2)
		}
		if len(all2) != len(all) || truncated2 != truncated {
			t.Fatalf("non-deterministic decode: %d/%v then %d/%v",
				len(all), truncated, len(all2), truncated2)
		}
		steps := withMatrix(all)
		for i, st := range steps {
			k, w := len(st.Compute), &st.Work
			if len(w.Pairs) != k {
				t.Fatalf("step %d: %d rows for %d machines", i, len(w.Pairs), k)
			}
			for _, row := range w.Pairs {
				if len(row) != k {
					t.Fatalf("step %d: ragged matrix row", i)
				}
			}
			if len(st.Comm) != k || len(st.Waiting) != k || len(w.Messages) != k || len(w.Edges) != k || len(w.Steps) != k || len(w.Vertices) != k {
				t.Fatalf("step %d: flat counter shape mismatch", i)
			}
		}
		// The derived views must hold up on anything the decode accepts.
		// (CheckMessages may legitimately reject a fuzzer-built matrix —
		// its invariant is about our writers — but it must not panic.)
		for _, run := range traceview.GroupRuns(steps) {
			s := Summarize(run)
			if s.Messages < 0 {
				// int64 overflow from adversarial cell values: the sum
				// wrapped. Summarize makes no overflow promises; nothing
				// further to assert on this input.
				return
			}
			if s.ActivePairs > s.Machines*s.Machines {
				t.Fatalf("ActivePairs %d exceeds matrix size", s.ActivePairs)
			}
		}
		_ = CheckMessages(all)
		var buf bytes.Buffer
		if err := WriteReport(&buf, all, truncated, nil); err != nil {
			t.Fatalf("report on accepted steps: %v", err)
		}
	})
}
