// Package gio reads and writes graphs in two formats:
//
//   - Edge-list text ("src dst" per line, '#' comments, blank lines ignored)
//     — the format the paper's datasets (SNAP/KONECT dumps) ship in, so a
//     user with the real Twitter/Friendster files can feed them in directly.
//   - A compact little-endian binary format (magic "BPG1") storing the CSR
//     degree and target arrays, used by cmd/gengraph to cache synthetic
//     datasets between experiment runs.
package gio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"bpart/internal/graph"
)

const binaryMagic = "BPG1"

// WriteEdgeList writes g as "src dst" lines.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# bpart edge list: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	var err error
	g.Edges(func(e graph.Edge) bool {
		_, err = fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadEdgeList parses an edge-list text stream. Vertex IDs may be sparse;
// the graph is sized to max ID + 1. Lines starting with '#' or '%' are
// comments; fields may be separated by spaces or tabs.
//
// The vertex count is not trusted with memory: the CSR build spends 16
// bytes per vertex slot, so max ID + 1 may not exceed 2^20 + 16 per arc,
// which keeps memory linear in the input. Without the bound the 12 bytes
// "2777702222 0" demanded 44 GB (found by FuzzReadEdgeList).
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	b := graph.NewBuilder(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("gio: line %d: want 2 fields, got %q", lineNo, line)
		}
		s, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: bad src %q: %v", lineNo, fields[0], err)
		}
		d, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: bad dst %q: %v", lineNo, fields[1], err)
		}
		b.Grow(int(max(s, d)) + 1)
		b.AddEdge(graph.VertexID(s), graph.VertexID(d))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gio: scan: %w", err)
	}
	if n, m := b.NumVertices(), b.NumEdges(); n > 1<<20+16*m {
		return nil, fmt.Errorf("gio: vertex ID %d needs %d vertex slots, more than 2^20 + 16 per arc (%d arcs) allows", n-1, n, m)
	}
	return b.Build(), nil
}

// WriteBinary writes g in the compact binary format.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	n, m := g.NumVertices(), g.NumEdges()
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(m))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for v := 0; v < n; v++ {
		binary.LittleEndian.PutUint32(buf, uint32(g.OutDegree(graph.VertexID(v))))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	for v := 0; v < n; v++ {
		buf = buf[:0]
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			buf = binary.LittleEndian.AppendUint32(buf, u)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readChunk is how many 4-byte words ReadBinary decodes per read.
const readChunk = 1 << 14

// ReadBinary parses the compact binary format. The file is CSR already:
// degrees prefix-sum into the offset array and targets are decoded in
// chunks into the target array, which graph.FromCSR then adopts.
//
// The header's n and m are not trusted with memory: both arrays start one
// chunk long and double only once the stream has filled them, so a forged
// header must be backed by actual stream bytes before memory is committed
// (found by FuzzReadBinary).
func ReadBinary(r io.Reader) (*graph.Graph, error) { return readBinary(r, -1) }

// binaryHeader is the format's byte count before the degree array: magic,
// n and m.
const binaryHeader = 4 + 16

// readBinary is ReadBinary over a stream of size bytes (-1 when unknown).
// A size of exactly binaryHeader + 4n + 4m backs the header with bytes
// already on disk, so both arrays are allocated once at their final size.
func readBinary(r io.Reader, size int64) (*graph.Graph, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("gio: magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("gio: bad magic %q, want %q", magic, binaryMagic)
	}
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("gio: header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:])
	m := binary.LittleEndian.Uint64(hdr[8:])
	const maxReasonable = 1 << 31
	if n > maxReasonable || m > maxReasonable {
		return nil, fmt.Errorf("gio: implausible sizes n=%d m=%d", n, m)
	}
	buf := make([]byte, 4*readChunk)
	nCap, mCap := min(n, readChunk), min(m, readChunk)
	if size == binaryHeader+4*int64(n)+4*int64(m) {
		nCap, mCap = n, m
	}

	offsets := make([]uint64, 1, nCap+1)
	var sum uint64
	for v := uint64(0); v < n; {
		c := min(n-v, readChunk)
		if _, err := io.ReadFull(r, buf[:4*c]); err != nil {
			return nil, fmt.Errorf("gio: degrees from %d: %w", v, err)
		}
		offsets = grown(offsets, c, n+1)
		for i := uint64(0); i < c; i++ {
			sum += uint64(binary.LittleEndian.Uint32(buf[4*i:]))
			offsets = append(offsets, sum)
		}
		v += c
	}
	if sum != m {
		return nil, fmt.Errorf("gio: degree sum %d != edge count %d", sum, m)
	}

	targets := make([]graph.VertexID, 0, mCap)
	for e := uint64(0); e < m; {
		c := min(m-e, readChunk)
		if _, err := io.ReadFull(r, buf[:4*c]); err != nil {
			return nil, fmt.Errorf("gio: targets from arc %d: %w", e, err)
		}
		targets = grown(targets, c, m)
		for i := uint64(0); i < c; i++ {
			targets = append(targets, binary.LittleEndian.Uint32(buf[4*i:]))
		}
		e += c
	}
	// FromCSR rejects any target outside [0,n).
	g, err := graph.FromCSR(offsets, targets)
	if err != nil {
		return nil, fmt.Errorf("gio: %w", err)
	}
	return g, nil
}

// grown returns s with room for c more elements, at least doubling its
// capacity (up to limit, the most it can ever hold) when it lacks the room —
// append alone grows a large slice by a quarter, which copies a
// multi-million-entry array many times over.
func grown[T any](s []T, c, limit uint64) []T {
	need := uint64(len(s)) + c
	if need <= uint64(cap(s)) {
		return s
	}
	return append(make([]T, 0, min(max(2*uint64(cap(s)), need), limit)), s...)
}

// WriteFile writes g to path, choosing the format by extension:
// ".bg" binary, anything else edge-list text; a trailing ".gz" adds gzip
// compression (e.g. "graph.el.gz", "graph.bg.gz" — SNAP/KONECT dumps ship
// gzipped).
func WriteFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	inner := path
	var gz *gzip.Writer
	if filepath.Ext(path) == ".gz" {
		gz = gzip.NewWriter(f)
		w = gz
		inner = strings.TrimSuffix(path, ".gz")
	}
	if filepath.Ext(inner) == ".bg" {
		err = WriteBinary(w, g)
	} else {
		err = WriteEdgeList(w, g)
	}
	if err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// ReadFile reads a graph from path, choosing the format by extension
// (".gz" suffix selects gzip decompression of the inner format).
func ReadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	inner := path
	size := int64(-1) // the inner stream's byte count, when the file is it
	if filepath.Ext(path) == ".gz" {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("gio: gzip: %w", err)
		}
		defer gz.Close()
		r = gz
		inner = strings.TrimSuffix(path, ".gz")
	} else if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
		size = st.Size()
	}
	if filepath.Ext(inner) == ".bg" {
		return readBinary(r, size)
	}
	return ReadEdgeList(r)
}
