package servestats

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGateCheck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gate.json")
	writeFile(t, path, `{"v":1,"max_p99_us":{"lookup":1000,"khop":5000}}`)
	g, err := ReadGateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Endpoints: []EndpointStats{
		{Endpoint: EndpointLookup, P99: 900},
		{Endpoint: EndpointWalk, P99: 1e9}, // no ceiling → passes
	}}
	if err := g.Check(rep); err != nil {
		t.Fatalf("passing report failed gate: %v", err)
	}
	rep.Endpoints[0].P99 = 1500
	if err := g.Check(rep); err == nil || !strings.Contains(err.Error(), "exceeds gate") {
		t.Fatalf("regression passed gate: %v", err)
	}

	for name, content := range map[string]string{
		"bad json":    "{",
		"bad version": `{"v":9,"max_p99_us":{"lookup":1}}`,
		"empty":       `{"v":1,"max_p99_us":{}}`,
	} {
		p := filepath.Join(dir, "bad.json")
		writeFile(t, p, content)
		if _, err := ReadGateFile(p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := ReadGateFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing gate file accepted")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
