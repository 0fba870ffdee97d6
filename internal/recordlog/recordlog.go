// Package recordlog is the JSONL record-log substrate under the repo's two
// log formats (trace, which also carries its spans' res_* resource deltas
// and the partition decision audit's events; request):
// the one writer and the one reader every family's framing contract comes
// from. It knows nothing about any family's schema — families marshal and
// parse their own records — and imports only the standard library. The
// reports rendered from the logs write through internal/report.
//
// The contract: a log is one JSON record per line. The Writer emits whole
// lines under a mutex, so a crashed run can damage only the final line; Scan
// therefore tolerates exactly that (reporting the log as truncated) and
// treats damage anywhere else, or a file with no valid record at all, as a
// hard error, since silently skipping interior records would skew every
// derived statistic.
package recordlog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
)

// Writer appends whole lines to a log. Line and Fail have no error result
// because their callers (tracers, request handlers) have no error
// channel of their own; the first failure is kept and surfaced by Flush and
// Close, so a truncated log is never silent.
type Writer struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	err     error // first failure
	every   int   // flush after this many lines
	pending int   // lines since the last flush
}

// NewWriter returns a Writer on w that flushes after every flushEvery lines
// (values below 1 mean 1), so a run that dies without Close still leaves all
// but its last flushEvery-1 lines on disk. The caller owns w.
func NewWriter(w io.Writer, flushEvery int) *Writer {
	if flushEvery < 1 {
		flushEvery = 1
	}
	return &Writer{bw: bufio.NewWriter(w), every: flushEvery}
}

// Line appends line and a newline. After a failure it does nothing.
func (w *Writer) Line(line []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if _, w.err = w.bw.Write(line); w.err != nil {
		return
	}
	if w.err = w.bw.WriteByte('\n'); w.err != nil {
		return
	}
	if w.pending++; w.pending >= w.every {
		w.pending = 0
		w.err = w.bw.Flush()
	}
}

// Fail records err as the log's failure if it is the first: for a record
// the caller could not encode at all, so the gap is reported like a failed
// write.
func (w *Writer) Fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
}

// Flush drains buffered lines to the underlying writer and returns the
// log's first failure, if any.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}

// Close flushes; the underlying writer is the caller's to close.
func (w *Writer) Close() error { return w.Flush() }

// MaxLine bounds one log line. The widest real lines (superstep records
// with per-machine arrays, audit.decision events with one row per piece)
// are far below it.
const MaxLine = 16 << 20

// Scan reads a log line by line, handing each non-blank line, trimmed of
// surrounding white space, to parse. The slice is only valid during the
// call. A line parse rejects is tolerated only as the last line of a log
// with at least one accepted line before it, and is reported by truncated;
// anywhere else it is an error. family prefixes every error and what names
// the family's records in them ("trace", "request").
func Scan(r io.Reader, family, what string, parse func(line []byte) error) (truncated bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), MaxLine)
	var (
		badLine  int
		badErr   error
		accepted int
	)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if badErr != nil {
			return false, fmt.Errorf("%s: line %d: %w (not the final line, refusing to skip)", family, badLine, badErr)
		}
		if err := parse(line); err != nil {
			badLine, badErr = lineNo, err
			continue
		}
		accepted++
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("%s: read: %w", family, err)
	}
	if badErr == nil {
		return false, nil
	}
	// A torn tail is only tolerable after a usable prefix: if nothing
	// before it parsed, the file is not a log of this family at all, and
	// "empty but truncated" would hide that from callers.
	if accepted == 0 {
		return false, fmt.Errorf("%s: line %d: %w (no valid %s records precede it)", family, badLine, badErr, what)
	}
	return true, nil
}

// Records is Scan for the common single-record-type family: it collects what
// parse returns for each accepted line, in file order.
func Records[T any](r io.Reader, family, what string, parse func(line []byte) (T, error)) (records []T, truncated bool, err error) {
	truncated, err = Scan(r, family, what, func(line []byte) error {
		rec, err := parse(line)
		if err == nil {
			records = append(records, rec)
		}
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return records, truncated, nil
}

// ReadFile opens path and parses it with read, prefixing a parse error with
// the path.
func ReadFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := read(f)
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// Attrs is a record's decoded annotation object. Families embed it in their
// record type, which gives the record an Attrs field and these accessors.
type Attrs map[string]any

// Float returns the named attribute as a float64 (JSON numbers decode to
// float64), with ok reporting presence.
func (a Attrs) Float(key string) (float64, bool) {
	v, ok := a[key].(float64)
	return v, ok
}

// Int returns the named numeric attribute truncated to int.
func (a Attrs) Int(key string) (int, bool) {
	v, ok := a.Float(key)
	return int(v), ok
}

// Str returns the named string attribute.
func (a Attrs) Str(key string) (string, bool) {
	v, ok := a[key].(string)
	return v, ok
}
