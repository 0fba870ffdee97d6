package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (ms metricSet) put(name, unit string, v float64) { ms[name] = metric{Value: v, Unit: unit} }

func (ms metricSet) names() []string {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// bounds is the share of the baseline by which each end-to-end metric may
// worsen before -compare (and the driver, from BENCHMARK.json) calls it a
// regression. All three are lower-is-better.
var bounds = map[string]float64{
	"setup_s":      0.25,
	"job_s":        0.25,
	"job_alloc_mb": 0.15,
}

// fingerprint says where and on what a result was measured; numbers from
// different fingerprints are not comparable.
type fingerprint struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"git_commit"`
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	Rounds     int     `json:"rounds"`
	Workers    int     `json:"workers"`
	Conns      int     `json:"conns"`
}

func newFingerprint(cfg config, rounds int) fingerprint {
	fp := fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Scale: cfg.scale, Seed: cfg.seed, Rounds: rounds, Workers: cfg.workers, Conns: cfg.conns,
		Kernel: "unknown", CPUModel: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// A checkout that is not a git repository keeps "unknown".
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(b))
	}
	return fp
}

// result is the file -out writes and -compare reads.
type result struct {
	Fingerprint fingerprint          `json:"fingerprint"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	EndToEnd    map[string]metricSet `json:"end_to_end,omitempty"` // by workload
	PerLayer    metricSet            `json:"per_layer,omitempty"`
	// JobSeconds keeps the wall time of every timed job of every workload,
	// in round order; job_s is its median.
	JobSeconds map[string][]float64 `json:"job_seconds,omitempty"`
}

// flat is the metric set of the machine-readable result line. With one
// workload the metric names are bare; with several, end-to-end metrics
// carry ".<workload>" (the traced pass names its own the same way) and
// setup_s, which all workloads share, appears once.
func (r *result) flat() metricSet {
	out := metricSet{}
	for wl, ms := range r.EndToEnd {
		for name, m := range ms {
			if name == "setup_s" || len(r.EndToEnd) == 1 {
				out[name] = m
			} else {
				out[name+"."+wl] = m
			}
		}
	}
	for name, m := range r.PerLayer {
		out[name] = m
	}
	return out
}

func writeResult(path string, r *result) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printMetrics lists every metric by name with its unit.
func printMetrics(w io.Writer, title string, ms metricSet) {
	fmt.Fprintf(w, "%s\n", title)
	for _, name := range ms.names() {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// compare prints, for every (end-to-end metric, workload) pair of base and
// next, the relative change against its bound, and for every per-layer
// count whether it repeated. It reports whether everything held.
func compare(w io.Writer, base, next *result) bool {
	ok := true
	if base.Fingerprint != next.Fingerprint {
		fmt.Fprintf(w, "note: fingerprints differ\n  base %+v\n  next %+v\n", base.Fingerprint, next.Fingerprint)
	}
	if next.Failed > 0 {
		fmt.Fprintf(w, "FAIL  %d of %d operations failed\n", next.Failed, next.Attempted)
		ok = false
	}
	workloadNames := make([]string, 0, len(base.EndToEnd))
	for name := range base.EndToEnd {
		workloadNames = append(workloadNames, name)
	}
	sort.Strings(workloadNames)
	fmt.Fprintf(w, "%-16s %-14s %12s %12s %8s %6s\n", "workload", "metric", "base", "next", "change", "bound")
	for _, wl := range workloadNames {
		for _, name := range base.EndToEnd[wl].names() {
			b, n := base.EndToEnd[wl][name], next.EndToEnd[wl][name]
			change := (n.Value - b.Value) / b.Value
			verdict := "ok"
			if _, present := next.EndToEnd[wl][name]; !present {
				verdict = "MISSING"
			} else if change > bounds[name] {
				verdict = "WORSE"
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-14s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n", wl, name, b.Value, n.Value, 100*change, 100*bounds[name], verdict)
		}
	}
	for _, name := range base.PerLayer.names() {
		b, n := base.PerLayer[name], next.PerLayer[name]
		if b.Unit == "count" && b.Value != n.Value {
			fmt.Fprintf(w, "COUNT %-40s %g -> %g\n", name, b.Value, n.Value)
			ok = false
		}
	}
	return ok
}
