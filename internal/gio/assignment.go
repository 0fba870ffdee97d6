package gio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Partition assignments are persisted as plain text: a header line
// "# bpart assignment k=<K> n=<N>" followed by one part id per vertex in
// vertex order. Systems integrating a precomputed partition (the paper's
// workflow: partition once in preprocessing, reuse for every analytics
// job) read this file at load time.

// WriteAssignment writes a vertex→part assignment. Each part line is
// formatted with strconv into one reused line buffer.
func WriteAssignment(w io.Writer, parts []int, k int) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# bpart assignment k=%d n=%d\n", k, len(parts)); err != nil {
		return err
	}
	var line []byte
	for _, p := range parts {
		if p < 0 || p >= k {
			return fmt.Errorf("gio: part %d out of range [0,%d)", p, k)
		}
		line = append(strconv.AppendInt(line[:0], int64(p), 10), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadAssignment parses an assignment stream, returning the parts and k.
func ReadAssignment(r io.Reader) ([]int, int, error) {
	const scanBuf = 1 << 20
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, scanBuf), scanBuf)
	if !sc.Scan() {
		return nil, 0, fmt.Errorf("gio: empty assignment file")
	}
	header := sc.Text()
	var k, n int
	if _, err := fmt.Sscanf(header, "# bpart assignment k=%d n=%d", &k, &n); err != nil {
		return nil, 0, fmt.Errorf("gio: bad assignment header %q: %v", header, err)
	}
	if k <= 0 || n < 0 {
		return nil, 0, fmt.Errorf("gio: bad assignment header values k=%d n=%d", k, n)
	}
	// The header's n is a claim, not evidence: an uploaded file may say
	// n=4000000000000000 and carry one line. Preallocate no more than one
	// scan buffer of input could hold (a part line is at least a digit and
	// a newline) and let append follow the lines that actually arrive; the
	// length check below rejects the lie.
	parts := make([]int, 0, min(n, scanBuf/2))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		p, err := strconv.Atoi(line)
		if err != nil {
			return nil, 0, fmt.Errorf("gio: bad part id %q: %v", line, err)
		}
		if p < 0 || p >= k {
			return nil, 0, fmt.Errorf("gio: part %d out of range [0,%d)", p, k)
		}
		parts = append(parts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(parts) != n {
		return nil, 0, fmt.Errorf("gio: header says %d vertices, file has %d", n, len(parts))
	}
	return parts, k, nil
}

// WriteAssignmentFile writes the assignment to path.
func WriteAssignmentFile(path string, parts []int, k int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteAssignment(f, parts, k); err != nil {
		return err
	}
	return f.Close()
}

// ReadAssignmentFile reads an assignment from path.
func ReadAssignmentFile(path string) ([]int, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return ReadAssignment(f)
}
