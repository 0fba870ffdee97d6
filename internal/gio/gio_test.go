package gio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"bpart/internal/gen"
	"bpart/internal/graph"
)

func sample() *graph.Graph {
	return graph.FromAdjacency([][]graph.VertexID{{1, 2}, {3}, {}, {0}})
}

func equalGraphs(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	return reflect.DeepEqual(a.EdgeList(), b.EdgeList())
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := sample()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(g, back) {
		t.Fatalf("round trip changed graph:\n%v\nvs\n%v", g.EdgeList(), back.EdgeList())
	}
}

func TestEdgeListCommentsAndWhitespace(t *testing.T) {
	in := "# comment\n% konect comment\n\n 0\t1 \n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %v", g)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatalf("edges wrong: %v", g.EdgeList())
	}
}

func TestEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",                      // one field
		"a b\n",                    // bad src
		"0 b\n",                    // bad dst
		"0 -1\n",                   // negative
		"99999999999999999999 0\n", // overflow
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

// A huge ID must be paid for by arcs: 2^20 + 16 slots per arc is the most
// a list may ask for, and a refusal allocates no slots.
func TestEdgeListSlotBound(t *testing.T) {
	const limit = 1<<20 + 16 // one arc
	if g, err := ReadEdgeList(strings.NewReader(fmt.Sprintf("%d 0\n", limit-1))); err != nil || g.NumVertices() != limit {
		t.Fatalf("ID at the bound: %v, %v", g, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEdgeList(strings.NewReader("2777702222 0"))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "vertex ID 2777702222") {
		t.Fatalf("err = %v, want one naming vertex ID 2777702222", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("refusal allocated %d bytes", grew)
	}
	if _, err := ReadEdgeList(strings.NewReader(fmt.Sprintf("%d 0\n", limit))); err == nil {
		t.Fatal("ID one past the bound accepted")
	}
}

func TestEdgeListEmpty(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# nothing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty input produced %v", g)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := sample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(g, back) {
		t.Fatal("binary round trip changed graph")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("BPG1"), // truncated header
		append([]byte("BPG1"), make([]byte, 16)...), // n=0 m=0 is fine, so append a degree overflow variant below
	}
	for i, in := range cases[:3] {
		if _, err := ReadBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// n=0, m=0 must parse to the empty graph.
	g, err := ReadBinary(bytes.NewReader(cases[3]))
	if err != nil {
		t.Fatalf("empty binary graph rejected: %v", err)
	}
	if g.NumVertices() != 0 {
		t.Fatalf("got %v", g)
	}
}

func TestBinaryRejectsInconsistentDegreeSum(t *testing.T) {
	g := sample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the edge count in the header.
	data[4+8] ^= 0xFF
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted edge count accepted")
	}
}

func TestBinaryRejectsOutOfRangeTarget(t *testing.T) {
	g := sample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Last 4 bytes are the final target; make it huge.
	for i := len(data) - 4; i < len(data); i++ {
		data[i] = 0xFF
	}
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestFileRoundTripBothFormats(t *testing.T) {
	g := sample()
	dir := t.TempDir()
	for _, name := range []string{"g.el", "g.bg", "g.el.gz", "g.bg.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalGraphs(g, back) {
			t.Fatalf("%s: round trip changed graph", name)
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.el")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadFileBadGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.el.gz")
	if err := os.WriteFile(path, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("corrupt gzip accepted")
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 2000, AvgDegree: 10, Skew: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "g.el")
	zipped := filepath.Join(dir, "g.el.gz")
	if err := WriteFile(plain, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(zipped, g); err != nil {
		t.Fatal(err)
	}
	ps, _ := os.Stat(plain)
	zs, _ := os.Stat(zipped)
	if zs.Size() >= ps.Size() {
		t.Fatalf("gzip file (%d) not smaller than plain (%d)", zs.Size(), ps.Size())
	}
}

// Property: any generated graph round-trips through both formats.
func TestQuickRoundTrips(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ChungLu(gen.Config{
			NumVertices: int(seed%100) + 5,
			AvgDegree:   3,
			Skew:        0.7,
			Seed:        seed,
		})
		if err != nil {
			return false
		}
		var tb, eb bytes.Buffer
		if WriteBinary(&tb, g) != nil || WriteEdgeList(&eb, g) != nil {
			return false
		}
		b1, err1 := ReadBinary(&tb)
		b2, err2 := ReadEdgeList(&eb)
		if err1 != nil || err2 != nil {
			return false
		}
		return equalGraphs(g, b1) && equalGraphs(g, b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// encodeBinary hand-assembles a binary graph file, so tests can state file
// bytes (and forge them) independently of WriteBinary.
func encodeBinary(n, m uint64, degrees, targets []uint32) []byte {
	out := []byte(binaryMagic)
	out = binary.LittleEndian.AppendUint64(out, n)
	out = binary.LittleEndian.AppendUint64(out, m)
	for _, w := range slices.Concat(degrees, targets) {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

func TestWriteBinaryBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	want := encodeBinary(4, 4, []uint32{2, 1, 0, 1}, []uint32{1, 2, 3, 0})
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteBinary wrote\n%x, want\n%x", buf.Bytes(), want)
	}
}

// A file whose rows are not in target order (written by another tool, or by
// hand) loads as the graph a Builder makes of the same arcs: rows sorted.
func TestBinaryUnsortedRowsLoadSorted(t *testing.T) {
	data := encodeBinary(4, 6, []uint32{3, 0, 2, 1}, []uint32{3, 1, 1, 2, 0, 3})
	g, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := graph.FromAdjacency([][]graph.VertexID{{3, 1, 1}, {}, {2, 0}, {3}})
	if !equalGraphs(g, want) {
		t.Fatalf("loaded %v, want %v", g.EdgeList(), want.EdgeList())
	}
}

// A graph wider than one read chunk in both arrays exercises the growth of
// the offset and target arrays across chunk boundaries.
func TestBinaryRoundTripManyChunks(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 3*readChunk + 17, AvgDegree: 4, Skew: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(g, back) {
		t.Fatal("binary round trip changed graph")
	}
}

// A forged header claiming n and m near 2^31 over a short body must fail
// having allocated in proportion to the bytes supplied, not to the header.
func TestBinaryForgedHeaderBoundedAlloc(t *testing.T) {
	const claimed = 1<<31 - 1
	for _, body := range []int{0, 10, 4 * readChunk, 1 << 20} {
		data := append(encodeBinary(claimed, claimed, nil, nil), make([]byte, body)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadBinary(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("body %d: forged header accepted: %v", body, g)
		}
		// Offsets are 8 bytes per 4-byte degree read and the array may
		// double once past what has arrived: 8·body covers it with room;
		// the constant covers the chunk buffer and the first chunk-long
		// array.
		limit := uint64(8*body + 1<<20)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("body %d: allocated %d bytes, want at most %d", body, got, limit)
		}
	}
}

// ReadFile on a .bg file of exactly the header's size allocates each CSR
// array once: the total stays within the final arrays plus the chunk buffer,
// page rounding and the file handle, where doubling would copy both arrays
// over again. A file one byte longer reads the same graph by the doubling
// path.
func TestReadFileSizedByFile(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 8*readChunk + 3, AvgDegree: 6, Skew: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	exact := filepath.Join(dir, "g.bg")
	if err := WriteFile(exact, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(exact)
	if err != nil {
		t.Fatal(err)
	}
	long := filepath.Join(dir, "long.bg")
	if err := os.WriteFile(long, append(data, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	final := uint64(8*(g.NumVertices()+1) + 4*g.NumEdges())
	for _, c := range []struct {
		path  string
		limit uint64
	}{
		{exact, final + 4*readChunk + 32<<10},
		{long, 4 * final},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		back, err := ReadFile(c.path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if !equalGraphs(g, back) {
			t.Fatalf("%s: round trip changed graph", c.path)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > c.limit {
			t.Errorf("%s: allocated %d bytes for %d bytes of arrays, want at most %d", filepath.Base(c.path), got, final, c.limit)
		}
	}
}

func benchGraph(b *testing.B) *graph.Graph {
	g, err := gen.ChungLu(gen.Config{NumVertices: 20000, AvgDegree: 16, Skew: 0.75, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkBinaryWrite(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, benchGraph(b)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
