package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smallConfig is every workload at 3000 vertices: the whole self-test runs
// in a few seconds.
func smallConfig(t *testing.T) config {
	cfg := newConfig(0.02, 7, t.TempDir())
	cfg.chunk, cfg.open = 300, 300
	return cfg
}

// manifest is BENCHMARK.json at the repo root.
type manifest struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetric(t *testing.T, ms metricSet, name, unit string) {
	t.Helper()
	m, ok := ms[name]
	switch {
	case !ok:
		t.Errorf("metric %s missing", name)
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		t.Errorf("metric %s = %v", name, m.Value)
	case m.Unit != unit:
		t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
	case !nameRE.MatchString(name):
		t.Errorf("metric name %q is outside the contract's alphabet", name)
	}
}

// TestEndToEnd runs two interleaved rounds of every workload untraced and
// checks the oracles pass and every declared end-to-end metric is there.
func TestEndToEnd(t *testing.T) {
	man := readManifest(t)
	res, err := execute(smallConfig(t), allWorkloads(), false, 2, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if len(res.EndToEnd[w.Name]) != len(man.EndToEnd) {
			t.Errorf("%s reports %d end-to-end metrics, BENCHMARK.json declares %d", w.Name, len(res.EndToEnd[w.Name]), len(man.EndToEnd))
		}
		for _, m := range man.EndToEnd {
			checkMetric(t, res.EndToEnd[w.Name], m.Name, m.Unit)
			if res.EndToEnd[w.Name][m.Name].Value <= 0 {
				t.Errorf("%s %s = %v, want > 0", w.Name, m.Name, res.EndToEnd[w.Name][m.Name].Value)
			}
			if m.Bound != bounds[m.Name] || m.Better != "lower" {
				t.Errorf("%s: BENCHMARK.json bound %v better %q, -compare uses %v lower", m.Name, m.Bound, m.Better, bounds[m.Name])
			}
		}
	}
}

// TestPerLayer runs one workload traced, as the driver's --trace 1 does,
// and checks the result line's metrics against BENCHMARK.json.
func TestPerLayer(t *testing.T) {
	man := readManifest(t)
	cfg := smallConfig(t)
	res, err := execute(cfg, []*workload{findWorkload("pipeline")}, true, 2, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	got := res.flat()
	if len(got) != len(man.PerLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json declares %d per-layer", len(got), len(man.PerLayer))
	}
	for _, m := range man.PerLayer {
		checkMetric(t, got, m.Name, m.Unit)
	}
	data, err := os.ReadFile(cfg.outDir + "/trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var sp span
	if err := json.Unmarshal([]byte(lines[0]), &sp); err != nil || sp.Name != "job.pipeline" || sp.Parent != 0 || sp.EndNS <= sp.StartNS {
		t.Errorf("first span of trace.jsonl = %+v (%v), want the job.pipeline root", sp, err)
	}
	if want := 2 * 9; len(lines) != want { // two traced jobs of one root and eight layer calls
		t.Errorf("trace.jsonl has %d spans, want %d", len(lines), want)
	}
}

// TestLayersCover checks that on every workload the layer calls account
// for the job: no more than a tenth of a traced job is outside any span.
func TestLayersCover(t *testing.T) {
	res, err := execute(smallConfig(t), allWorkloads(), true, 2, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		c, ok := res.PerLayer["harness.layers_cover."+w.name]
		if !ok || c.Value < 0.90 || c.Value > 1.05 {
			t.Errorf("%s: layers_cover = %v (present %v), want within [0.90, 1.05]", w.name, c.Value, ok)
		}
	}
}

// TestCorruptionIsCaught breaks one oracle and one reference assignment
// and expects the jobs that read them to count failures.
func TestCorruptionIsCaught(t *testing.T) {
	in, _, err := timedSetUp(smallConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	h := newHarness(in)
	run := func(name string) int {
		res, err := runWorkloads(h, 0, []*workload{findWorkload(name)}, false, 1, 0, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res.Failed
	}
	if n := run("iterate") + run("serve"); n != 0 {
		t.Fatalf("%d failures before any corruption", n)
	}
	in.oracle.bfs[in.source]++
	if run("iterate") == 0 {
		t.Error("a wrong BFS oracle went unnoticed")
	}
	for v := range in.assign[0] {
		in.assign[0][v] = (in.assign[0][v] + 1) % serveK
	}
	if run("serve") == 0 {
		t.Error("replies that contradict the reference assignment went unnoticed")
	}
}

// TestCompare checks the verdicts of -compare: equal files pass, a job_s
// beyond its bound or a changed count fails.
func TestCompare(t *testing.T) {
	mk := func(jobS, steps float64) *result {
		return &result{
			EndToEnd: map[string]metricSet{"walk": {"job_s": {jobS, "s"}, "job_alloc_mb": {100, "MB"}}},
			PerLayer: metricSet{"walk.total_steps": {steps, "count"}, "walk.new_s": {jobS, "s"}},
		}
	}
	var out bytes.Buffer
	if !compare(&out, mk(1, 50), mk(1+bounds["job_s"]/2, 50)) {
		t.Errorf("a change within the bound failed:\n%s", out.String())
	}
	if compare(&out, mk(1, 50), mk(1+2*bounds["job_s"], 50)) {
		t.Error("a job_s twice beyond its bound passed")
	}
	if compare(&out, mk(1, 50), mk(1, 51)) {
		t.Error("a changed count passed")
	}
}
