package partition

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partaudit"
	"bpart/internal/telemetry"
)

// referenceStream is the scorer Stream is checked against: the same greedy
// rule written the slow, obvious way — every candidate of every vertex
// visited in index order, the penalty α·γ·W_i^{γ−1} recomputed with math.Pow
// each time, and the skip reason carried as the audit string. It streams
// from a starting assignment of its own (nil, or a part or Unassigned per
// vertex, none of them streamed), honours K, C, Alpha, Slack, Vertices,
// CapV, CapE and In, and emits Stream's audit events on Tracer (none when
// start places a vertex), but not its span.
func referenceStream(g *graph.Graph, start []int, opt StreamOptions) ([]int, StreamStats) {
	stream := opt.Vertices
	if stream == nil {
		for v := 0; v < g.NumVertices(); v++ {
			stream = append(stream, graph.VertexID(v))
		}
	}
	parts := fillUnassigned(g.NumVertices())
	vCount := make([]int, opt.K)
	eCount := make([]int, opt.K)
	// start's vertices are placed before the stream begins; α, d̄ and the
	// slack cap count them with the streamed ones.
	n, m := len(stream), 0
	for v, p := range start {
		if p != Unassigned {
			d := g.OutDegree(graph.VertexID(v))
			parts[v] = p
			vCount[p]++
			eCount[p] += d
			n++
			m += d
		}
	}
	if len(stream) == 0 {
		return parts, StreamStats{} // an empty stream places and records nothing
	}
	for _, v := range stream {
		m += g.OutDegree(v)
	}
	avgDeg := float64(m) / float64(n)
	if metrics.IsZero(avgDeg) {
		avgDeg = 1
	}
	alpha := opt.Alpha
	if alpha <= 0 {
		alpha = float64(m) * math.Pow(float64(opt.K), gamma-1) / math.Pow(float64(n), gamma)
	}
	if alpha <= 0 {
		alpha = 1
	}
	slack := opt.Slack
	if slack <= 0 {
		slack = DefaultSlack
	}
	capW := slack * float64(n) / float64(opt.K)

	w := make([]float64, opt.K)
	for i := range w {
		w[i] = opt.C*float64(vCount[i]) + (1-opt.C)*float64(eCount[i])/avgDeg
	}
	stats := StreamStats{Placed: int64(len(stream))}
	var audit *partaudit.StreamRecorder
	if n == len(stream) {
		audit = partaudit.NewStream(opt.Tracer, g, opt.K)
	}
	for _, v := range stream {
		affinity := make([]int, opt.K)
		rows := [][]graph.VertexID{g.Neighbors(v)}
		if opt.In != nil {
			rows = append(rows, opt.In.Neighbors(v))
		}
		for _, row := range rows {
			for _, u := range row {
				if parts[u] != Unassigned {
					affinity[parts[u]]++
				}
			}
		}
		d := g.OutDegree(v)
		dec := audit.SampleDecision(v, d)
		cause := partaudit.CauseGreedy
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < opt.K; i++ {
			pen := alpha * gamma * math.Pow(w[i], gamma-1)
			score := float64(affinity[i]) - pen
			skip := ""
			switch {
			case w[i] >= capW:
				stats.CapWSkips++
				skip = partaudit.SkipCapW
			case opt.CapV > 0 && vCount[i]+1 > opt.CapV:
				stats.CapVSkips++
				skip = partaudit.SkipCapV
			case opt.CapE > 0 && eCount[i]+d > opt.CapE:
				stats.CapESkips++
				skip = partaudit.SkipCapE
			}
			if dec != nil {
				dec.Candidate(i, affinity[i], pen, score, skip)
			}
			if skip != "" {
				continue
			}
			if score > bestScore {
				best, bestScore = i, score
				cause = partaudit.CauseGreedy
			} else if metrics.TieEq(score, bestScore) && best >= 0 && w[i] < w[best] {
				best = i
				cause = partaudit.CauseTieBreak
			}
		}
		if cause == partaudit.CauseTieBreak {
			stats.TieBreaks++
		}
		if best == -1 {
			stats.Fallbacks++
			cause = partaudit.CauseFallback
			best = 0
			for i := 1; i < opt.K; i++ {
				if w[i] < w[best] {
					best = i
				}
			}
		}
		parts[v] = best
		vCount[best]++
		eCount[best] += d
		w[best] += opt.C + (1-opt.C)*float64(d)/avgDeg
		audit.Place(v, d, best, cause, dec, parts)
	}
	audit.End()
	return parts, stats
}

// auditEvents returns the audit.* events m recorded, with their times
// zeroed.
func auditEvents(m *telemetry.Memory) []telemetry.Record {
	var out []telemetry.Record
	for _, r := range m.Records() {
		if strings.HasPrefix(r.Name, "audit.") {
			r.Time = time.Time{}
			out = append(out, r)
		}
	}
	return out
}

// streamFrom runs opt as one pass over a fresh state that holds start (nil,
// or a part or Unassigned per vertex): a one-shot Stream from a starting
// assignment.
func streamFrom(g *graph.Graph, start []int, opt StreamOptions) (*StreamResult, error) {
	s := NewStreamState(g)
	for v, p := range start {
		s.Assign(graph.VertexID(v), p)
	}
	return s.Stream(opt)
}

// matchReference runs opt from start through a StreamState pass and
// referenceStream, untraced and traced, and fails unless assignment, stats
// and audit events agree and the pass's per-part counts match its
// assignment. It returns the stats.
func matchReference(t *testing.T, name string, g *graph.Graph, start []int, opt StreamOptions) StreamStats {
	t.Helper()
	type scorer func(StreamOptions) ([]int, StreamStats)
	reference := func(o StreamOptions) ([]int, StreamStats) { return referenceStream(g, start, o) }
	product := func(o StreamOptions) ([]int, StreamStats) {
		res, err := streamFrom(g, start, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The per-part counts cover every assigned vertex, start's included.
		vCount, eCount := make([]int, o.K), make([]int, o.K)
		for v, p := range res.Parts {
			if p != Unassigned {
				vCount[p]++
				eCount[p] += g.OutDegree(graph.VertexID(v))
			}
		}
		if !reflect.DeepEqual(res.VertexCount, vCount) || !reflect.DeepEqual(res.EdgeCount, eCount) {
			t.Fatalf("%s: counts %v / %v, want %v / %v", name, res.VertexCount, res.EdgeCount, vCount, eCount)
		}
		return res.Parts, res.Stats
	}
	audited := func(run scorer, o StreamOptions) ([]int, StreamStats, []telemetry.Record) {
		m := telemetry.NewMemory()
		o.Tracer = m
		parts, stats := run(o)
		return parts, stats, auditEvents(m)
	}

	wantParts, wantStats := reference(opt)
	gotParts, gotStats := product(opt)
	if !reflect.DeepEqual(gotParts, wantParts) || gotStats != wantStats {
		t.Fatalf("%s: stream differs from the reference scorer: stats %+v, reference %+v",
			name, gotStats, wantStats)
	}
	_, _, wantLog := audited(reference, opt)
	gotParts, gotStats, gotLog := audited(product, opt)
	if !reflect.DeepEqual(gotParts, wantParts) || gotStats != wantStats {
		t.Fatalf("%s: traced stream differs from the untraced reference", name)
	}
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Fatalf("%s: audit events differ from the reference scorer's", name)
	}
	held := slices.ContainsFunc(start, func(p int) bool { return p != Unassigned })
	if empty := opt.Vertices != nil && len(opt.Vertices) == 0; (held || empty) == (len(gotLog) > 0) {
		t.Fatalf("%s: %d audit events, want some exactly when start places no vertex and the stream is not empty", name, len(gotLog))
	}
	return wantStats
}

// TestStreamMatchesReferenceScorer holds the sparse candidate scorer to the
// index-order reference: same assignment, same stats and, when traced, the
// same audit events.
func TestStreamMatchesReferenceScorer(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{
		NumVertices: 3000, AvgDegree: 12, Skew: 0.78, Locality: 0.45, Window: 256, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := g.Transpose()
	n, m := g.NumVertices(), g.NumEdges()

	var sawSkips, sawTies, sawFallbacks bool
	saw := func(s StreamStats) {
		sawSkips = sawSkips || s.CapWSkips+s.CapVSkips+s.CapESkips > 0
		sawTies = sawTies || s.TieBreaks > 0
		sawFallbacks = sawFallbacks || s.Fallbacks > 0
	}
	for _, k := range []int{2, 16, 256} {
		for _, c := range []float64{0, 0.5, 1} {
			for _, variant := range []struct{ caps, in bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
				opt := StreamOptions{K: k, C: c}
				if variant.caps {
					opt.CapV = n/k + 1
					opt.CapE = m/k + m/(4*k)
				}
				if variant.in {
					opt.In = in
				}
				stats := matchReference(t, fmt.Sprintf("k=%d c=%v %+v", k, c, variant), g, nil, opt)
				saw(stats)
			}
		}
	}

	// The call BPart makes from layer 2 on: a subset of the vertices, in ID
	// order, under hard caps at the slack.
	var subset []graph.VertexID
	subsetEdges := 0
	for v := 0; v < n; v++ {
		if v%3 != 1 {
			subset = append(subset, graph.VertexID(v))
			subsetEdges += g.OutDegree(graph.VertexID(v))
		}
	}
	for _, k := range []int{16, 256} {
		stats := matchReference(t, fmt.Sprintf("restricted k=%d", k), g, nil, StreamOptions{
			K: k, C: 0.5, In: in, Vertices: subset,
			CapV: int(1.1*float64(len(subset))/float64(k)) + 1,
			CapE: int(1.1*float64(subsetEdges)/float64(k)) + 1,
		})
		saw(stats)
	}
	// A slack under 1 leaves less room than there are vertices, so the
	// all-parts-full fallback must fire, into parts that are already closed.
	for _, caps := range []bool{false, true} {
		opt := StreamOptions{K: 16, C: 0.5, In: in, Slack: 0.9}
		if caps {
			opt.CapV = n / 16
			opt.CapE = m / 16
		}
		stats := matchReference(t, fmt.Sprintf("slack=0.9 caps=%v", caps), g, nil, opt)
		if stats.Fallbacks == 0 {
			t.Fatalf("slack=0.9 caps=%v: no fallbacks", caps)
		}
		saw(stats)
	}
	// Seeded streams. The restream a crash makes: eight machines holding
	// contiguous ID ranges, machine 3 dead, its vertices streamed in degree
	// order onto the seven survivors (numbered 0…6 in machine order) with
	// the recovery policy's α and no W cap.
	survivors := make([]int, n)
	var lost []graph.VertexID
	for v := range survivors {
		switch machine := v * 8 / n; {
		case machine == 3:
			survivors[v] = Unassigned
		case machine > 3:
			survivors[v] = machine - 1
		default:
			survivors[v] = machine
		}
	}
	for _, v := range OrderByDegree(g, false) {
		if survivors[v] == Unassigned {
			lost = append(lost, v)
		}
	}
	saw(matchReference(t, "restream", g, survivors, StreamOptions{
		K: 7, C: 0.5, In: in, Slack: math.Inf(1), Vertices: lost,
		Alpha: float64(m) * math.Sqrt(8) / math.Pow(float64(n), 1.5),
	}))
	// A start that puts 300 vertices on each of parts 0–4 closes them
	// before the first placement: by the slack, or by CapV once the slack is
	// lifted. Parts 5–9 start with ≈ 94 vertices (603–610 edges) and 10–15
	// with ≈ 47 (≈ 305), so the open parts' |E_i| order is not their index
	// order, and CapE turns the heavy ones away from the first placement
	// (streamed out-degrees are 5 and 6).
	lopsided := fillUnassigned(n)
	for v := 0; v < 3*n/4; v++ {
		lopsided[v] = 5 + v%16%11
		if v < n/2 {
			lopsided[v] = v % 5
		}
	}
	tail := OrderByID(n)[3*n/4:]
	for _, tc := range []struct {
		name   string
		opt    StreamOptions
		closed func(StreamStats) int64
	}{
		{"closed by slack", StreamOptions{K: 16, C: 0.5, In: in, Vertices: tail},
			func(s StreamStats) int64 { return s.CapWSkips }},
		{"closed by CapV", StreamOptions{K: 16, C: 0.5, In: in, Vertices: tail,
			Slack: math.Inf(1), CapV: 300, CapE: 612},
			func(s StreamStats) int64 { return s.CapVSkips }},
	} {
		stats := matchReference(t, tc.name, g, lopsided, tc.opt)
		if got, want := tc.closed(stats), int64(5*len(tail)); got < want {
			t.Fatalf("%s: %d skips, want >= %d: parts 0-4 did not start closed", tc.name, got, want)
		}
		saw(stats)
	}
	// An empty stream returns start with its counts; an all-Unassigned start
	// with nil Vertices streams every vertex in ID order, as no start does.
	matchReference(t, "empty stream", g, lopsided, StreamOptions{
		K: 16, C: 0.5, In: in, Vertices: []graph.VertexID{},
	})
	matchReference(t, "unassigned start", g, fillUnassigned(n), StreamOptions{K: 16, C: 0.5, In: in})
	// As many parts as vertices, and more.
	small, err := gen.ChungLu(gen.Config{NumVertices: 200, AvgDegree: 6, Skew: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	smallIn := small.Transpose()
	for _, k := range []int{200, 333} {
		stats := matchReference(t, fmt.Sprintf("n=200 k=%d", k), small, nil,
			StreamOptions{K: k, C: 0.5, In: smallIn, CapV: 2, CapE: 40})
		saw(stats)
	}

	if !sawSkips || !sawTies || !sawFallbacks {
		t.Fatalf("grid never exercised cap skips (%v), tie-breaks (%v) or fallbacks (%v)", sawSkips, sawTies, sawFallbacks)
	}
}

// Stats.TieBreaks counts placements, not candidate replacements: it must
// equal the number of tie_break causes the reference scorer decides, one
// per placement, and the causes Stream's audit samples (every 64th position
// and the hubs) must be the reference's (matchReference compares the
// events).
func TestTieBreaksEqualAuditCauses(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{
		NumVertices: 3000, AvgDegree: 12, Skew: 0.78, Locality: 0.45, Window: 256, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := g.Transpose()
	var total, sampled int64
	for _, opt := range []StreamOptions{
		{K: 16, C: 0},
		{K: 64, C: 1, In: in},
		{K: 16, C: 0.5, In: in, CapV: 3000/16 + 1, CapE: g.NumEdges()/16 + 1},
	} {
		stats := matchReference(t, fmt.Sprintf("K=%d C=%v", opt.K, opt.C), g, nil, opt)
		m := telemetry.NewMemory()
		opt.Tracer = m
		if _, err := Stream(g, opt); err != nil {
			t.Fatal(err)
		}
		var causes int64
		for _, r := range m.Find("audit.decision") {
			if r.Attr("cause") == partaudit.CauseTieBreak {
				causes++
			}
		}
		if causes > stats.TieBreaks {
			t.Fatalf("K=%d: TieBreaks = %d, but the audit samples %d tie_break causes", opt.K, stats.TieBreaks, causes)
		}
		total += stats.TieBreaks
		sampled += causes
	}
	if total == 0 || sampled == 0 {
		t.Fatalf("%d tie-break placements, %d of them sampled: the grid must exercise both", total, sampled)
	}
}
