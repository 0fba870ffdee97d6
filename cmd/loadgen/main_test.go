package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bpart/internal/graph"
	"bpart/internal/servestats"
)

func testBackendServer(t *testing.T, n, k int) *httptest.Server {
	t.Helper()
	adj := make([][]graph.VertexID, n)
	for i := range adj {
		adj[i] = []graph.VertexID{graph.VertexID((i + 1) % n)}
	}
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i * k / n
	}
	b, err := servestats.NewBackend(graph.FromAdjacency(adj), parts, k)
	if err != nil {
		t.Fatal(err)
	}
	s := &servestats.Server{B: b}
	ts := httptest.NewServer(s.Mux())
	t.Cleanup(ts.Close)
	return ts
}

func TestClosedLoopRun(t *testing.T) {
	ts := testBackendServer(t, 50, 4)
	var out, errb strings.Builder
	code := run([]string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-vertices", "50", "-n", "200", "-seed", "7", "-zipf", "1.1", "-c", "4",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "200 requests") || !strings.Contains(out.String(), "0 errors") {
		t.Fatalf("summary: %s", out.String())
	}
	for _, ep := range servestats.Endpoints {
		if !strings.Contains(out.String(), ep) {
			t.Fatalf("summary missing %s:\n%s", ep, out.String())
		}
	}
}

func TestOpenLoopRun(t *testing.T) {
	ts := testBackendServer(t, 20, 2)
	var out, errb strings.Builder
	code := run([]string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-vertices", "20", "-n", "50", "-open", "-rate", "5000", "-mix", "1,0,0",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "50 requests") {
		t.Fatalf("summary: %s", out.String())
	}
}

func TestErrorsExitNonzero(t *testing.T) {
	ts := testBackendServer(t, 10, 2)
	var out, errb strings.Builder
	// -vertices larger than the served graph: out-of-range lookups 400.
	code := run([]string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-vertices", "1000", "-n", "50", "-mix", "1,0,0",
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(errb.String(), "first error") {
		t.Fatalf("stderr: %s", errb.String())
	}
}

// TestFlagValidation checks that each bad flag value is a usage error
// (exit 2) before any request reaches the server.
func TestFlagValidation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("request sent: %s", r.URL)
	}))
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")
	var out, errb strings.Builder
	for name, args := range map[string][]string{
		"bad flag":     {"-bogus"},
		"no vertices":  {"-n", "5"},
		"bad mix len":  {"-vertices", "10", "-mix", "1,2"},
		"bad mix val":  {"-vertices", "10", "-mix", "a,b,c"},
		"neg mix":      {"-vertices", "10", "-mix", "-1,0,0"},
		"open no rate": {"-vertices", "10", "-open", "-rate", "0"},
		"zero c":       {"-vertices", "10", "-c", "0"},
		"neg c":        {"-vertices", "10", "-c", "-3"},
		"neg hops":     {"-vertices", "10", "-hops", "-1"},
		"hops 9":       {"-vertices", "10", "-hops", "9"},
		"neg steps":    {"-vertices", "10", "-steps", "-1"},
	} {
		if code := run(append([]string{"-addr", addr}, args...), &out, &errb); code != 2 {
			t.Errorf("%s: exit = %d, want 2", name, code)
		}
	}
}
