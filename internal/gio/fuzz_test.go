package gio

import (
	"bytes"
	"fmt"
	"testing"
)

// Fuzz targets for the two parsers: arbitrary input must never panic, and
// anything that parses must re-serialize and re-parse to the same graph.

func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n"))
	f.Add([]byte("# comment\n5 5\n"))
	f.Add([]byte(""))
	f.Add([]byte("a b\n"))
	f.Add([]byte("0\t1\n 2  3 \n%x\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("reserialize: %v", err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %v vs %v", g, back)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	g := sample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("BPG1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
	})
}

func FuzzReadAssignment(f *testing.F) {
	f.Add([]byte("# bpart assignment k=2 n=2\n0\n1\n"))
	f.Add([]byte("# bpart assignment k=1 n=0\n"))
	f.Add([]byte("junk"))
	// Headers that lie about n: the first overflows make's capacity, the
	// second asks for 16 GB. Neither may cost more than the lines present.
	f.Add([]byte("# bpart assignment k=1 n=4000000000000000\n0\n"))
	f.Add([]byte("# bpart assignment k=1 n=2000000000\n0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, k, err := ReadAssignment(bytes.NewReader(data))
		if err != nil {
			return
		}
		var hk, hn int
		if _, err := fmt.Sscanf(string(data), "# bpart assignment k=%d n=%d", &hk, &hn); err != nil || hk != k || hn != len(parts) {
			t.Fatalf("accepted %d parts over k=%d under a header saying k=%d n=%d (%v)", len(parts), k, hk, hn, err)
		}
		for _, p := range parts {
			if p < 0 || p >= k {
				t.Fatalf("accepted out-of-range part %d (k=%d)", p, k)
			}
		}
	})
}
