package recordlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// parseObject is the test family's parser: a line is a record iff it is a
// JSON object. It keeps a copy, since Scan reuses the line's memory.
func parseObject(got *[]string) func([]byte) error {
	return func(line []byte) error {
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			return err
		}
		*got = append(*got, string(line))
		return nil
	}
}

// The reader half of the contract, once for every family.
func TestScanContract(t *testing.T) {
	const good = `{"n":1}`
	long := `{"pad":"` + strings.Repeat("x", MaxLine) + `"}`
	for _, tc := range []struct {
		name      string
		in        string
		records   int
		truncated bool
		err       string // "" = no error
	}{
		{name: "empty", in: ""},
		{name: "blank lines only", in: "\n  \n\t\n"},
		{name: "blank lines skipped", in: "\n" + good + "\n\n  \n" + good + "\n", records: 2},
		{name: "CRLF", in: good + "\r\n" + good + "\r\n", records: 2},
		{name: "no trailing newline", in: good + "\n" + good, records: 2},
		{name: "torn tail", in: good + "\n" + `{"n":`, records: 1, truncated: true},
		{name: "torn tail then blanks", in: good + "\n" + `{"n":` + "\n\n \n", records: 1, truncated: true},
		{name: "rejected complete tail", in: good + "\nnot json\n", records: 1, truncated: true},
		{name: "interior damage", in: good + "\n" + `{"n":` + "\n" + good + "\n",
			err: "fam: line 2: unexpected end of JSON input (not the final line, refusing to skip)"},
		{name: "interior damage after blanks", in: "\n" + `{"n":` + "\n\n" + good + "\n",
			err: "fam: line 2: unexpected end of JSON input (not the final line, refusing to skip)"},
		{name: "all garbage", in: "not json\n",
			err: "fam: line 1: invalid character 'o' in literal null (expecting 'u') (no valid thing records precede it)"},
		{name: "torn only line", in: `{"n":`,
			err: "fam: line 1: unexpected end of JSON input (no valid thing records precede it)"},
		{name: "over-long line", in: good + "\n" + long + "\n",
			err: "fam: read: bufio.Scanner: token too long"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			truncated, err := Scan(strings.NewReader(tc.in), "fam", "thing", parseObject(&got))
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				if truncated {
					t.Fatal("truncated reported together with an error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if truncated != tc.truncated || len(got) != tc.records {
				t.Fatalf("truncated=%v records=%d, want %v/%d", truncated, len(got), tc.truncated, tc.records)
			}
			for _, line := range got {
				if line != good {
					t.Fatalf("line handed to parse untrimmed or damaged: %q", line)
				}
			}
		})
	}
}

// A line just under the bound still scans.
func TestScanAcceptsLineBelowBound(t *testing.T) {
	line := `{"pad":"` + strings.Repeat("x", MaxLine-64) + `"}`
	n := 0
	truncated, err := Scan(strings.NewReader(line+"\n"), "fam", "thing", func(b []byte) error {
		n += len(b)
		return nil
	})
	if err != nil || truncated || n != len(line) {
		t.Fatalf("err=%v truncated=%v bytes=%d, want %d", err, truncated, n, len(line))
	}
}

func TestRecords(t *testing.T) {
	parse := func(line []byte) (int, error) {
		var v struct{ N int }
		err := json.Unmarshal(line, &v)
		return v.N, err
	}
	got, truncated, err := Records(strings.NewReader(`{"n":1}`+"\n\n"+`{"n":2}`+"\n"+`{"n":`), "fam", "thing", parse)
	if err != nil || !truncated || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Records = %v, %v, %v", got, truncated, err)
	}
	got, truncated, err = Records(strings.NewReader("x\n"+`{"n":1}`+"\n"), "fam", "thing", parse)
	if err == nil || truncated || got != nil {
		t.Fatalf("interior damage: Records = %v, %v, %v", got, truncated, err)
	}
}

func TestScanWrapsParseError(t *testing.T) {
	sentinel := errors.New("bad record")
	_, err := Scan(strings.NewReader("x\n"), "fam", "thing", func([]byte) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, does not wrap the parser's error", err)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	buf bytes.Buffer
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.buf.Len()+len(p) > f.n {
		return 0, f.err
	}
	return f.buf.Write(p)
}

func TestWriterStickyError(t *testing.T) {
	wantErr := errors.New("disk full")
	w := NewWriter(failWriter{wantErr}, 1)
	w.Line([]byte(`{"n":1}`))
	w.Line([]byte(`{"n":2}`)) // no-op against the failure
	if err := w.Flush(); !errors.Is(err, wantErr) {
		t.Fatalf("Flush = %v, want %v", err, wantErr)
	}
	if err := w.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close = %v, want %v (sticky)", err, wantErr)
	}

	// A sink that fails mid-run: the first failure is the one reported,
	// and nothing is written past it.
	sink := &failAfter{n: 16, err: wantErr}
	w = NewWriter(sink, 1)
	w.Line([]byte(`{"n":1}`))
	w.Line([]byte(`{"n":2}`))
	w.Line([]byte(`{"n":3}`))
	if err := w.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close = %v, want %v", err, wantErr)
	}
	if got := sink.buf.String(); got != "{\"n\":1}\n{\"n\":2}\n" {
		t.Fatalf("sink holds %q", got)
	}
}

func TestWriterFail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	first, second := errors.New("unencodable"), errors.New("later")
	w.Fail(first)
	w.Fail(second)
	w.Line([]byte(`{"n":1}`))
	if err := w.Close(); err != first {
		t.Fatalf("Close = %v, want the first failure", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote %q after a failure", buf.String())
	}
}

// The flush cadence is what a crashed run (no Flush, no Close) leaves
// behind: every full interval, as whole lines Scan reads back.
func TestWriterFlushCadence(t *testing.T) {
	for _, tc := range []struct{ every, lines, want int }{
		{every: 1, lines: 3, want: 3},
		{every: 0, lines: 2, want: 2}, // below 1 means 1
		{every: 2, lines: 7, want: 6},
		{every: 256, lines: 255, want: 0},
		{every: 256, lines: 600, want: 512},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf, tc.every)
		for i := 0; i < tc.lines; i++ {
			w.Line([]byte(fmt.Sprintf(`{"n":%d}`, i)))
		}
		var got []string
		truncated, err := Scan(bytes.NewReader(buf.Bytes()), "fam", "thing", parseObject(&got))
		if err != nil {
			t.Fatalf("every=%d: crash prefix does not parse: %v", tc.every, err)
		}
		// bufio may spill a partial line of its own once its buffer
		// fills; that is the torn tail Scan tolerates.
		if len(got) < tc.want || len(got) > tc.lines || (truncated && len(got) == tc.lines) {
			t.Fatalf("every=%d: %d of %d lines on the sink (truncated=%v), want at least %d",
				tc.every, len(got), tc.lines, truncated, tc.want)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(buf.String(), "\n"); n != tc.lines {
			t.Fatalf("every=%d: Close left %d of %d lines", tc.every, n, tc.lines)
		}
	}
}

func TestWriterConcurrentWholeLines(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 3)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				w.Line([]byte(fmt.Sprintf(`{"worker":%d,"j":%d}`, i, j)))
			}
		}(i)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	truncated, err := Scan(&buf, "fam", "thing", parseObject(&got))
	if err != nil || truncated || len(got) != 400 {
		t.Fatalf("err=%v truncated=%v lines=%d, want 400 whole lines", err, truncated, len(got))
	}
}

func TestReadFile(t *testing.T) {
	read := func(r io.Reader) (int, error) {
		n := 0
		_, err := Scan(r, "fam", "thing", func([]byte) error { n++; return nil })
		return n, err
	}
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("a\nb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := ReadFile(path, read); err != nil || n != 2 {
		t.Fatalf("ReadFile = %d, %v", n, err)
	}
	if _, err := ReadFile(path+".missing", read); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v", err)
	}
	// A parse error names the file.
	bad := func(r io.Reader) (int, error) {
		_, err := Scan(r, "fam", "thing", func([]byte) error { return errors.New("nope") })
		return 0, err
	}
	if _, err := ReadFile(path, bad); err == nil || !strings.HasPrefix(err.Error(), path+": fam: line 1: nope") {
		t.Fatalf("parse error = %v, want it prefixed with the path", err)
	}
}

func TestAttrs(t *testing.T) {
	a := Attrs{"f": 2.9, "s": "x", "b": true}
	if v, ok := a.Float("f"); !ok || v != 2.9 {
		t.Fatalf("Float = %v, %v", v, ok)
	}
	if v, ok := a.Int("f"); !ok || v != 2 {
		t.Fatalf("Int = %v, %v (want truncation)", v, ok)
	}
	if v, ok := a.Str("s"); !ok || v != "x" {
		t.Fatalf("Str = %q, %v", v, ok)
	}
	for _, key := range []string{"s", "b", "absent"} {
		if _, ok := a.Float(key); ok {
			t.Fatalf("Float(%q) reported a number", key)
		}
	}
	if _, ok := a.Str("f"); ok {
		t.Fatal("Str of a number reported a string")
	}
	if _, ok := Attrs(nil).Int("f"); ok {
		t.Fatal("nil Attrs reported a value")
	}
}
