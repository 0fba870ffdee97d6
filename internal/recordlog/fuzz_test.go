package recordlog

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzScan throws arbitrary byte streams at the reader under the strictest
// parser a family could bring (a line is a record iff it is a JSON object).
// Scan must never panic, must be deterministic, and must keep the framing
// promises every family inherits: each non-blank line is offered to parse
// exactly once and in order until the verdict is settled, truncated means
// exactly one rejected line — the last — after at least one accepted one,
// and a clean verdict means every non-blank line was accepted.
func FuzzScan(f *testing.F) {
	const good = `{"n":1}`
	f.Add([]byte(good + "\n"))
	f.Add([]byte(good + "\r\n\r\n" + good))
	f.Add([]byte(good + "\n" + `{"n":`))
	f.Add([]byte("garbage\n" + good + "\n"))
	f.Add([]byte("garbage\n"))
	f.Add([]byte(good + "\ngarbage\n" + good + "\n"))
	f.Add([]byte("\n \t\n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		var nonBlank []string
		for _, l := range strings.Split(string(data), "\n") {
			if l = string(bytes.TrimSpace([]byte(l))); l != "" {
				nonBlank = append(nonBlank, l)
			}
		}
		scan := func() (offered, accepted int, truncated bool, err error) {
			truncated, err = Scan(bytes.NewReader(data), "fam", "thing", func(line []byte) error {
				if offered >= len(nonBlank) || string(line) != nonBlank[offered] {
					t.Fatalf("parse call %d got %q, want non-blank line %d of the input", offered, line, offered)
				}
				offered++
				var obj map[string]any
				if err := json.Unmarshal(line, &obj); err != nil {
					return err
				}
				accepted++
				return nil
			})
			return
		}
		offered, accepted, truncated, err := scan()
		o2, a2, t2, err2 := scan()
		if o2 != offered || a2 != accepted || t2 != truncated || (err == nil) != (err2 == nil) {
			t.Fatal("non-deterministic scan of identical bytes")
		}
		switch {
		case err != nil:
			if truncated {
				t.Fatal("truncated reported together with an error")
			}
			if !strings.HasPrefix(err.Error(), "fam: ") {
				t.Fatalf("error without the family prefix: %v", err)
			}
		case truncated:
			if accepted == 0 || offered != accepted+1 || offered != len(nonBlank) {
				t.Fatalf("truncated with offered=%d accepted=%d of %d lines", offered, accepted, len(nonBlank))
			}
		default:
			if accepted != len(nonBlank) {
				t.Fatalf("clean verdict with %d of %d lines accepted", accepted, len(nonBlank))
			}
		}
	})
}
