package servestats

import (
	"math"
	"strings"
	"testing"
)

// syntheticLog builds a log routed exactly per parts: vertex v goes to
// parts[v], round-robin over endpoints, latency proportional to the part
// id so per-part percentiles are distinguishable.
func syntheticLog(parts []int, requests int, version int) *Log {
	l := &Log{}
	for i := 0; i < requests; i++ {
		v := i % len(parts)
		l.Records = append(l.Records, Record{
			Seq:       int64(i + 1),
			Endpoint:  Endpoints[i%len(Endpoints)],
			Vertex:    int64(v),
			Part:      parts[v],
			Version:   version,
			Status:    200,
			LatencyUS: float64(100 * (parts[v] + 1)),
		})
	}
	return l
}

func TestSummarize(t *testing.T) {
	parts := []int{0, 0, 0, 1}
	l := syntheticLog(parts, 400, 1)
	rep := Summarize(l)
	if rep.Total != 400 || rep.Routed != 400 {
		t.Fatalf("total=%d routed=%d", rep.Total, rep.Routed)
	}
	if len(rep.Endpoints) != 3 {
		t.Fatalf("endpoints = %+v", rep.Endpoints)
	}
	for _, e := range rep.Endpoints {
		if e.Count == 0 || e.P50 <= 0 || e.P999 < e.P50 {
			t.Fatalf("endpoint digest %+v", e)
		}
	}
	if len(rep.Parts) != 2 {
		t.Fatalf("parts = %+v", rep.Parts)
	}
	// Vertices 0..2 are part 0 → 3/4 of traffic.
	if math.Abs(rep.Parts[0].Share-0.75) > 1e-9 {
		t.Fatalf("part 0 share = %g, want 0.75", rep.Parts[0].Share)
	}
	// Part 1 latencies (200µs) are strictly above part 0's (100µs).
	if rep.Parts[1].P50 <= rep.Parts[0].P50 {
		t.Fatalf("part latencies not separated: %+v", rep.Parts)
	}
	if len(rep.Versions) != 1 || rep.Versions[0].Version != 1 || rep.Versions[0].Count != 400 {
		t.Fatalf("versions = %+v", rep.Versions)
	}
}

func TestSummarizeCountsErrorsAndUnrouted(t *testing.T) {
	l := &Log{Records: []Record{
		{Seq: 1, Endpoint: EndpointLookup, Vertex: 1, Part: 0, Version: 1, Status: 200, LatencyUS: 10},
		{Seq: 2, Endpoint: EndpointLookup, Vertex: 999, Part: -1, Version: 1, Status: 400, LatencyUS: 5},
	}}
	rep := Summarize(l)
	if rep.Total != 2 || rep.Routed != 1 {
		t.Fatalf("total=%d routed=%d", rep.Total, rep.Routed)
	}
	if rep.Endpoints[0].Errors != 1 {
		t.Fatalf("errors = %d", rep.Endpoints[0].Errors)
	}
}

func TestAttributeReconcilesExactly(t *testing.T) {
	parts := []int{0, 0, 0, 0, 0, 0, 1, 1, 2, 2} // 6/2/2 split over k=3
	l := syntheticLog(parts, 1000, 1)
	attrib, err := Attribute(l, parts, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrib) != 3 {
		t.Fatalf("attribution rows = %d", len(attrib))
	}
	var total int64
	for _, a := range attrib {
		total += a.Requests
	}
	if total != 1000 {
		t.Fatalf("per-part requests sum to %d, want 1000", total)
	}
	// Round-robin over 10 vertices: each vertex gets exactly 100 requests,
	// so part shares reconcile exactly against vertex shares.
	if attrib[0].Requests != 600 || attrib[1].Requests != 200 || attrib[2].Requests != 200 {
		t.Fatalf("requests = %+v", attrib)
	}
	for _, a := range attrib {
		if math.Abs(a.Share-a.VShare) > 1e-9 {
			t.Fatalf("part %d share %g != vertex share %g under uniform traffic", a.Part, a.Share, a.VShare)
		}
		if math.Abs(a.Pressure-1) > 1e-9 {
			t.Fatalf("part %d pressure = %g, want 1", a.Part, a.Pressure)
		}
		if a.P99 <= 0 {
			t.Fatalf("part %d missing latency digest", a.Part)
		}
	}
}

func TestAttributeSkewedPressure(t *testing.T) {
	parts := []int{0, 1, 1, 1} // part 0 holds 25% of vertices
	l := &Log{}
	for i := 0; i < 100; i++ {
		// All traffic hammers vertex 0 → part 0 absorbs 100% on 25% size.
		l.Records = append(l.Records, Record{
			Seq: int64(i + 1), Endpoint: EndpointLookup, Vertex: 0, Part: 0,
			Version: 1, Status: 200, LatencyUS: 50,
		})
	}
	attrib, err := Attribute(l, parts, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(attrib[0].Pressure-4) > 1e-9 {
		t.Fatalf("hot part pressure = %g, want 4", attrib[0].Pressure)
	}
	if attrib[1].Requests != 0 || attrib[1].Pressure != 0 {
		t.Fatalf("cold part = %+v", attrib[1])
	}
}

func TestAttributeRejectsMisrouting(t *testing.T) {
	parts := []int{0, 1}
	l := &Log{Records: []Record{
		{Seq: 1, Endpoint: EndpointLookup, Vertex: 0, Part: 1, Version: 1, Status: 200},
	}}
	if _, err := Attribute(l, parts, 2, 1); err == nil || !strings.Contains(err.Error(), "assignment says") {
		t.Fatalf("misrouted record accepted: %v", err)
	}
	// Out-of-range vertex and part are also hard errors.
	l.Records[0] = Record{Seq: 1, Endpoint: EndpointLookup, Vertex: 9, Part: 0, Version: 1}
	if _, err := Attribute(l, parts, 2, 1); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	l.Records[0] = Record{Seq: 1, Endpoint: EndpointLookup, Vertex: 0, Part: 5, Version: 1}
	if _, err := Attribute(l, parts, 2, 1); err == nil {
		t.Fatal("out-of-range part accepted")
	}
}

func TestAttributeFiltersVersions(t *testing.T) {
	parts := []int{0, 1}
	l := &Log{Records: []Record{
		{Seq: 1, Endpoint: EndpointLookup, Vertex: 0, Part: 0, Version: 1, Status: 200},
		// A v2 record routed differently must not break v1 attribution.
		{Seq: 2, Endpoint: EndpointLookup, Vertex: 0, Part: 1, Version: 2, Status: 200},
		// Unrouted records are skipped regardless of version.
		{Seq: 3, Endpoint: EndpointLookup, Vertex: 0, Part: -1, Version: 1, Status: 400},
	}}
	attrib, err := Attribute(l, parts, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if attrib[0].Requests != 1 || attrib[1].Requests != 0 {
		t.Fatalf("v1 attribution = %+v", attrib)
	}
	// A version no record carries attributes nothing: an error naming the
	// versions the log holds, not a table of zeros.
	if attrib, err := Attribute(l, parts, 2, 7); err == nil || !strings.Contains(err.Error(), "version 7") || !strings.Contains(err.Error(), "[1 2]") {
		t.Fatalf("absent version: %+v, %v", attrib, err)
	}
}
