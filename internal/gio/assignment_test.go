package gio

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestAssignmentRoundTrip(t *testing.T) {
	parts := []int{0, 3, 1, 2, 0, 0, 3}
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, parts, 4); err != nil {
		t.Fatal(err)
	}
	got, k, err := ReadAssignment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 || !reflect.DeepEqual(got, parts) {
		t.Fatalf("round trip: k=%d parts=%v", k, got)
	}
}

// The file text is pinned byte for byte: the header, then one decimal
// part per line, multi-digit parts included.
func TestWriteAssignmentBytesPinned(t *testing.T) {
	const k = 100000
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, []int{0, 9, 10, 99, 100, 65535, k - 1, 7}, k); err != nil {
		t.Fatal(err)
	}
	const want = "# bpart assignment k=100000 n=8\n0\n9\n10\n99\n100\n65535\n99999\n7\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteAssignment wrote %q, want %q", got, want)
	}
}

func TestAssignmentFileRoundTrip(t *testing.T) {
	parts := []int{1, 0, 1}
	path := filepath.Join(t.TempDir(), "a.parts")
	if err := WriteAssignmentFile(path, parts, 2); err != nil {
		t.Fatal(err)
	}
	got, k, err := ReadAssignmentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 || !reflect.DeepEqual(got, parts) {
		t.Fatalf("file round trip: k=%d parts=%v", k, got)
	}
	if _, _, err := ReadAssignmentFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWriteAssignmentRejectsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, []int{0, 5}, 2); err == nil {
		t.Fatal("out-of-range part accepted")
	}
	if err := WriteAssignment(&buf, []int{-1}, 2); err == nil {
		t.Fatal("negative part accepted")
	}
}

func TestReadAssignmentErrors(t *testing.T) {
	cases := []string{
		"",                                // empty
		"garbage\n0\n",                    // bad header
		"# bpart assignment k=0 n=1\n0\n", // k=0
		"# bpart assignment k=2 n=2\n0\n", // count mismatch
		"# bpart assignment k=2 n=1\nx\n", // bad id
		"# bpart assignment k=2 n=1\n7\n", // out of range
		"# bpart assignment k=2 n=-1\n",   // negative n
	}
	for _, in := range cases {
		if _, _, err := ReadAssignment(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestReadAssignmentSkipsCommentsAndBlanks(t *testing.T) {
	in := "# bpart assignment k=2 n=2\n\n# comment\n0\n1\n"
	parts, k, err := ReadAssignment(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 || len(parts) != 2 {
		t.Fatalf("parsed k=%d parts=%v", k, parts)
	}
}
