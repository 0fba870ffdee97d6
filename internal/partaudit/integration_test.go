// Integration tests for the audit acceptance guarantees, in an external
// test package: core and partition import partaudit, so these tests must
// sit outside the package to avoid an import cycle.
package partaudit_test

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"testing"

	"bpart/internal/core"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partaudit"
	"bpart/internal/partition"
	"bpart/internal/telemetry"
	"bpart/internal/traceview"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.ChungLu(gen.Config{
		NumVertices: 4000, AvgDegree: 12, Skew: 0.75, Locality: 0.5, Window: 128, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// auditedRun traces p into a fresh JSONL trace, partitions, and returns
// the trace's decoded audit plus the assignment.
func auditedRun(t *testing.T, p partition.Partitioner, g *graph.Graph, k int) (*partaudit.Audit, *partition.Assignment) {
	t.Helper()
	var buf bytes.Buffer
	tr := telemetry.NewJSONL(&buf)
	in, ok := p.(telemetry.Instrumentable)
	if !ok {
		t.Fatalf("%s does not implement telemetry.Instrumentable", p.Name())
	}
	in.SetTelemetry(tr, nil)
	res, err := p.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := traceview.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	log, err := trace.Audit()
	if err != nil {
		t.Fatal(err)
	}
	return log, res
}

// The final window of a full-graph stream must reproduce Evaluate's Report
// exactly: same per-piece sizes, same biases, same cut ratio (acceptance).
func TestFennelTimelineFinalWindowEqualsReport(t *testing.T) {
	g := testGraph(t)
	const k = 8
	log, a := auditedRun(t, &partition.Fennel{}, g, k)

	h := log.Header
	if h == nil || h.Scheme != "Fennel" || h.K != k || h.Vertices != g.NumVertices() || h.Edges != g.NumEdges() {
		t.Fatalf("header = %+v", h)
	}

	rep := metrics.NewReport(g, a.Parts, k, false)
	if len(log.Windows) == 0 {
		t.Fatal("no windows")
	}
	win := log.Windows[len(log.Windows)-1]
	if win.Layer != 0 {
		t.Fatalf("Fennel's stream is layer %d, want 0", win.Layer)
	}
	if win.Placed != g.NumVertices() {
		t.Fatalf("final window placed %d, graph has %d vertices", win.Placed, g.NumVertices())
	}
	if win.ResolvedArcs != g.NumEdges() {
		t.Fatalf("final window resolved %d arcs, graph has %d", win.ResolvedArcs, g.NumEdges())
	}
	for i := 0; i < k; i++ {
		if win.PieceV[i] != rep.Vertices[i] || win.PieceE[i] != rep.Edges[i] {
			t.Fatalf("piece %d: window (%d,%d), report (%d,%d)",
				i, win.PieceV[i], win.PieceE[i], rep.Vertices[i], rep.Edges[i])
		}
	}
	if win.VBias != rep.VertexBias || win.EBias != rep.EdgeBias || win.CutRatio != rep.CutRatio {
		t.Fatalf("window (%v,%v,%v) != report (%v,%v,%v)",
			win.VBias, win.EBias, win.CutRatio, rep.VertexBias, rep.EdgeBias, rep.CutRatio)
	}
	f := log.Final
	if f == nil {
		t.Fatal("no final record")
	}
	if f.VBias != rep.VertexBias || f.EBias != rep.EdgeBias || f.CutRatio != rep.CutRatio {
		t.Fatalf("final record (%v,%v,%v) != report (%v,%v,%v)",
			f.VBias, f.EBias, f.CutRatio, rep.VertexBias, rep.EdgeBias, rep.CutRatio)
	}
}

// Every sampled decision's chosen piece must (a) match the piece the
// assignment actually holds and (b) be the argmax of its own score table
// (acceptance: explain matches the assignment).
func TestDecisionsMatchAssignment(t *testing.T) {
	g := testGraph(t)
	const k = 8
	for _, p := range []partition.Partitioner{&partition.Fennel{}, &partition.LDG{}} {
		log, a := auditedRun(t, p, g, k)
		if len(log.Decisions) == 0 {
			t.Fatalf("%s: no sampled decisions", p.Name())
		}
		for _, d := range log.Decisions {
			if got := a.Parts[d.Vertex]; got != d.Piece {
				t.Fatalf("%s: vertex %d audited onto piece %d, assignment has %d",
					p.Name(), d.Vertex, d.Piece, got)
			}
			if d.Cause == partaudit.CauseFallback {
				continue // every part was at capacity; no eligible argmax
			}
			i := slices.IndexFunc(d.Cands, func(c partaudit.Candidate) bool { return c.Piece == d.Piece })
			if i < 0 {
				t.Fatalf("%s: vertex %d: chosen piece %d missing from score table %+v",
					p.Name(), d.Vertex, d.Piece, d.Cands)
			}
			chosen := d.Cands[i]
			if chosen.Skip != "" {
				t.Fatalf("%s: vertex %d placed on a skipped piece: %+v", p.Name(), d.Vertex, chosen)
			}
			for _, c := range d.Cands {
				if c.Skip != "" || c.Piece == d.Piece {
					continue
				}
				if c.Score > chosen.Score && !metrics.TieEq(c.Score, chosen.Score) {
					t.Fatalf("%s: vertex %d (%s): piece %d scored %v, beats chosen piece %d at %v",
						p.Name(), d.Vertex, d.Cause, c.Piece, c.Score, d.Piece, chosen.Score)
				}
			}
			if d.RunnerUp >= 0 && d.Gap < 0 && d.Cause == partaudit.CauseGreedy {
				t.Fatalf("%s: vertex %d: greedy placement with negative runner-up gap %v",
					p.Name(), d.Vertex, d.Gap)
			}
		}
	}
}

// The BPart final record must equal Evaluate's Report after the JSON
// round-trip (acceptance), and the predicted sizes must cover every part.
func TestBPartFinalEqualsReport(t *testing.T) {
	g := testGraph(t)
	const k = 8
	b, err := core.New(core.Default())
	if err != nil {
		t.Fatal(err)
	}
	log, a := auditedRun(t, b, g, k)
	rep := metrics.NewReport(g, a.Parts, k, false)
	f := log.Final
	if f == nil {
		t.Fatal("no final record")
	}
	if f.K != k || f.VBias != rep.VertexBias || f.EBias != rep.EdgeBias || f.CutRatio != rep.CutRatio {
		t.Fatalf("final = %+v, report = %+v", f, rep)
	}
	for i := 0; i < k; i++ {
		if f.V[i] != rep.Vertices[i] || f.E[i] != rep.Edges[i] {
			t.Fatalf("part %d: final (%d,%d), report (%d,%d)", i, f.V[i], f.E[i], rep.Vertices[i], rep.Edges[i])
		}
	}
	if len(f.PredictedV) != k || len(f.PredictedE) != k {
		t.Fatalf("predicted sizes: %d/%d entries, want %d", len(f.PredictedV), len(f.PredictedE), k)
	}
	for i := 0; i < k; i++ {
		if f.PredictedV[i] <= 0 {
			t.Fatalf("part %d predicted empty at freeze time: %v", i, f.PredictedV)
		}
	}
}

// The combining audit tree must reproduce the piece→part mapping: replaying
// the merge records from singleton pieces yields exactly the layer's group
// records, frozen group ids cover 0..k-1 once, and with refinement disabled
// the predicted per-part sizes equal the actual ones (acceptance).
func TestBPartCombineTreeReproducesMapping(t *testing.T) {
	g := testGraph(t)
	const k = 8
	cfg := core.Default()
	cfg.DisableRefine = true
	b, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := auditedRun(t, b, g, k)
	if len(log.Layers) == 0 {
		t.Fatal("no layer records")
	}

	finalSeen := map[int]bool{}
	for _, lr := range log.Layers {
		// Replay this layer's merges from singleton piece groups.
		groups := map[string]int{}
		for p := 0; p < lr.Pieces; p++ {
			groups[groupKey([]int{p})]++
		}
		for _, m := range log.Merges {
			if m.Layer != lr.Layer {
				continue
			}
			ka, kb := groupKey(m.APieces), groupKey(m.BPieces)
			if groups[ka] == 0 || groups[kb] == 0 {
				t.Fatalf("layer %d: merge of unknown groups %v + %v", lr.Layer, m.APieces, m.BPieces)
			}
			groups[ka]--
			groups[kb]--
			groups[groupKey(append(append([]int(nil), m.APieces...), m.BPieces...))]++
		}
		for _, grp := range lr.Groups {
			key := groupKey(grp.Pieces)
			if groups[key] == 0 {
				t.Fatalf("layer %d: group %v not reproduced by the merge records", lr.Layer, grp.Pieces)
			}
			groups[key]--
			if grp.Final >= 0 {
				if finalSeen[grp.Final] {
					t.Fatalf("part %d frozen twice", grp.Final)
				}
				finalSeen[grp.Final] = true
			}
		}
		for key, n := range groups {
			if n != 0 {
				t.Fatalf("layer %d: replay left group %s unaccounted (%d)", lr.Layer, key, n)
			}
		}
	}
	for part := 0; part < k; part++ {
		if !finalSeen[part] {
			t.Fatalf("part %d never frozen across %d layers", part, len(log.Layers))
		}
	}

	// Without refinement, the sizes predicted at freeze time are the actual
	// final sizes.
	f := log.Final
	if f == nil {
		t.Fatal("no final record")
	}
	if f.RefineMoves != 0 {
		t.Fatalf("refine disabled but %d moves recorded", f.RefineMoves)
	}
	for i := 0; i < k; i++ {
		if f.PredictedV[i] != f.V[i] || f.PredictedE[i] != f.E[i] {
			t.Fatalf("part %d: predicted (%d,%d) != actual (%d,%d) with refine disabled",
				i, f.PredictedV[i], f.PredictedE[i], f.V[i], f.E[i])
		}
	}
}

// groupKey canonicalizes a piece set (merge records list A's pieces before
// B's; group records inherit that order, but sorting keeps the key robust).
func groupKey(pieces []int) string {
	s := append([]int(nil), pieces...)
	sort.Ints(s)
	return fmt.Sprint(s)
}

// Auditing is pure observation: the traced assignment must be identical to
// an untraced one, for every audited scheme.
func TestAuditDoesNotChangeResult(t *testing.T) {
	g := testGraph(t)
	const k = 8
	newBPart := func() partition.Partitioner {
		b, err := core.New(core.Default())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, mk := range []func() partition.Partitioner{
		func() partition.Partitioner { return &partition.Fennel{} },
		func() partition.Partitioner { return &partition.LDG{} },
		newBPart,
	} {
		plain := mk()
		a1, err := plain.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		audited := mk()
		audited.(telemetry.Instrumentable).SetTelemetry(telemetry.NewJSONL(io.Discard), nil)
		a2, err := audited.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		for v := range a1.Parts {
			if a1.Parts[v] != a2.Parts[v] {
				t.Fatalf("%s: vertex %d: unaudited part %d, audited part %d",
					plain.Name(), v, a1.Parts[v], a2.Parts[v])
			}
		}
	}
}

// The text renderers must handle a real log without error, and
// explain must reject an unsampled vertex with a helpful error.
func TestRenderers(t *testing.T) {
	g := testGraph(t)
	const k = 8
	b, err := core.New(core.Default())
	if err != nil {
		t.Fatal(err)
	}
	log, _ := auditedRun(t, b, g, k)

	var out bytes.Buffer
	// Stream position 0 is always sampled (pos % SampleEvery == 0).
	first := log.Decisions[0].Vertex
	if err := partaudit.WriteExplain(&out, log, first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("<- chosen")) {
		t.Fatalf("explain output lacks a chosen marker:\n%s", out.String())
	}
	out.Reset()
	if err := partaudit.WriteTimeline(&out, log); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("final (= Evaluate's Report)")) {
		t.Fatal("timeline output lacks the final report row")
	}
	out.Reset()
	if err := partaudit.WriteCombine(&out, log); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("FROZEN as part")) {
		t.Fatal("combine output lacks freeze outcomes")
	}

	// A vertex no rule sampled: find one absent from the decision log.
	sampled := map[int]bool{}
	for _, d := range log.Decisions {
		sampled[d.Vertex] = true
	}
	unsampled := -1
	for v := 0; v < g.NumVertices(); v++ {
		if !sampled[v] {
			unsampled = v
			break
		}
	}
	if unsampled >= 0 {
		if err := partaudit.WriteExplain(io.Discard, log, unsampled); err == nil {
			t.Fatal("explain accepted an unsampled vertex")
		}
	}
}
