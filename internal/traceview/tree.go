package traceview

import (
	"fmt"
	"sort"
	"strings"
)

// SpanNode is one node of the reconstructed phase tree. The JSONL schema
// records spans flat (each line is one closed span), so nesting is rebuilt
// from wall-clock containment: a span is a child of the innermost span
// whose [start, end] interval contains it. That is exactly the call
// structure for the repo's single-process tracers, where nested phases
// (bpart.partition → bpart.layer → bpart.refine) literally nest in time.
type SpanNode struct {
	Rec      *Record // nil for the synthetic root
	Children []*SpanNode
}

// Walk visits the tree depth-first, reporting each node's depth (root =
// -1, top-level spans = 0).
func (n *SpanNode) Walk(fn func(node *SpanNode, depth int)) { n.walk(fn, -1) }

func (n *SpanNode) walk(fn func(*SpanNode, int), depth int) {
	fn(n, depth)
	for _, c := range n.Children {
		c.walk(fn, depth+1)
	}
}

// BuildTree reconstructs the span tree of a trace. Spans are sorted by
// start time (earlier first; ties: longer span first, so the container
// precedes the contained), then stacked: each span becomes a child of the
// deepest open span that still contains it. Concurrent sibling spans
// overlap without containing each other and end up as siblings, which is
// the honest rendering — the schema has no goroutine IDs to do better.
func BuildTree(tr *Trace) *SpanNode {
	var spans []*Record
	for i := range tr.Records {
		if tr.Records[i].Type == "span" {
			spans = append(spans, &tr.Records[i])
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Time.Equal(spans[j].Time) {
			return spans[i].Time.Before(spans[j].Time)
		}
		return spans[i].DurUS > spans[j].DurUS
	})
	root := &SpanNode{}
	stack := []*SpanNode{root}
	for _, sp := range spans {
		node := &SpanNode{Rec: sp}
		// Pop spans that ended before this one starts. The containment
		// test is on end time: equal-start spans were ordered so the
		// longer (containing) one is already on the stack.
		for len(stack) > 1 {
			top := stack[len(stack)-1]
			if sp.Time.Before(top.Rec.End()) && !sp.End().After(top.Rec.End()) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		parent := stack[len(stack)-1]
		parent.Children = append(parent.Children, node)
		stack = append(stack, node)
	}
	return root
}

// NameSummary aggregates all spans sharing a name. Allocs, AllocBytes,
// GCCycles and GCPauseUS sum their res_* deltas, which include those of
// nested spans: a parent's sums count its children's again.
type NameSummary struct {
	Name                         string
	Count                        int
	TotalUS, MaxUS               float64
	Allocs, AllocBytes, GCCycles int64
	GCPauseUS                    float64
}

// SummarizeSpans aggregates span durations and resource deltas by name,
// sorted by total duration descending (ties by name, so output is
// deterministic). The trace is outside input, so a res_* attr the writer
// never writes, on any record, is an error: one that is not a
// non-negative number below 2^63 (the writer's int64s), or any on a record
// with a negative dur_us.
func SummarizeSpans(tr *Trace) ([]NameSummary, error) {
	idx := map[string]int{}
	var out []NameSummary
	for i := range tr.Records {
		r := &tr.Records[i]
		if err := checkRes(r); err != nil {
			return nil, err
		}
		if r.Type != "span" {
			continue
		}
		j, ok := idx[r.Name]
		if !ok {
			j = len(out)
			idx[r.Name] = j
			out = append(out, NameSummary{Name: r.Name})
		}
		res := func(key string) float64 { v, _ := r.Float(key); return v }
		s := &out[j]
		s.Count++
		s.TotalUS += r.DurUS
		s.MaxUS = max(s.MaxUS, r.DurUS)
		s.Allocs += int64(res("res_allocs"))
		s.AllocBytes += int64(res("res_alloc_bytes"))
		s.GCCycles += int64(res("res_gc_cycles"))
		s.GCPauseUS += res("res_gc_pause_us")
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalUS != out[j].TotalUS {
			return out[i].TotalUS > out[j].TotalUS
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

func checkRes(r *Record) error {
	bad := "" // the first offender in key order, so the error is the same every run
	for key, raw := range r.Attrs {
		v, ok := raw.(float64)
		if strings.HasPrefix(key, "res_") && (!ok || v < 0 || v >= 1<<63 || r.DurUS < 0) && (bad == "" || key < bad) {
			bad = key
		}
	}
	if bad != "" {
		return fmt.Errorf("traceview: %s record %q: %s = %v (dur_us %v), want non-negative numbers below 2^63", r.Type, r.Name, bad, r.Attrs[bad], r.DurUS)
	}
	return nil
}
