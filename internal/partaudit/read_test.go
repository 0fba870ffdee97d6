package partaudit_test

import (
	"strings"
	"testing"

	"bpart/internal/partaudit"
	"bpart/internal/traceview"
)

// decodeText reads a trace and decodes its audit: the path tracestat
// takes.
func decodeText(s string) (*partaudit.Audit, error) {
	tr, err := traceview.Read(strings.NewReader(s))
	if err != nil {
		return nil, err
	}
	return tr.Audit()
}

// header and window are one audit event each, as a trace writes them.
const (
	header = `{"ts":"2026-08-06T10:00:00Z","type":"event","name":"audit.header","attrs":{"scheme":"X","k":2,"n":4,"m":3,"sample_every":64,"hubs":16,"hub_degree":5,"window":1024}}` + "\n"
	window = `{"ts":"2026-08-06T10:00:00Z","type":"event","name":"audit.window","attrs":{"index":0,"placed":4,"piece_v":[2,2],"piece_e":[2,1],"v_bias":0,"e_bias":0.3,"cut_ratio":0.5,"resolved_arcs":2,"cut_arcs":1}}` + "\n"
)

// The reader must tolerate a torn final line (crashed run) but reject
// interior damage.
func TestReadLogTornFinalLine(t *testing.T) {
	valid := header + window
	log, err := decodeText(valid)
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated || log.Header == nil || len(log.Windows) != 1 {
		t.Fatalf("clean trace decoded wrong: truncated=%v header=%v windows=%d",
			log.Truncated, log.Header, len(log.Windows))
	}

	torn := valid + `{"ts":"2026-08-06T10:00:00Z","type":"event","name":"audit.win`
	log, err = decodeText(torn)
	if err != nil {
		t.Fatalf("torn final line rejected: %v", err)
	}
	if !log.Truncated {
		t.Fatal("torn final line not flagged")
	}
	if log.Header == nil || len(log.Windows) != 1 {
		t.Fatal("intact prefix lost on torn final line")
	}

	interior := `{"ts":"2026-08-06T10:00:00Z","type":"ev` + "\n" + valid
	if _, err := decodeText(interior); err == nil {
		t.Fatal("interior damage accepted")
	}
}

// A file whose only line is garbage is not a truncated trace — it is not a
// trace at all, and must be a hard error (the CLIs turn this into a
// non-zero exit instead of silently printing nothing).
func TestReadLogAllGarbage(t *testing.T) {
	for _, in := range []string{
		"this is not an audit log\n",
		`{"ts":"2026-08-06T10:00:00Z","type":"ev`,
		`{"not":"typed"}` + "\n",
	} {
		if _, err := decodeText(in); err == nil {
			t.Errorf("decoding %q accepted a trace with no usable records", in)
		}
	}
	// The genuinely empty file stays fine: a run that wrote nothing yet.
	log, err := decodeText("")
	if err != nil || log.Truncated {
		t.Fatalf("empty input: err=%v truncated=%v", err, log != nil && log.Truncated)
	}
}

// An audit.* event the emitters never write is an error that names the
// record, not a zero-valued record or a panic; other events pass by.
func TestDecodeRejectsMalformedAudit(t *testing.T) {
	event := func(name, attrs string) string {
		return `{"ts":"2026-08-06T10:00:00Z","type":"event","name":"` + name + `","attrs":` + attrs + "}\n"
	}
	for _, tc := range []struct{ in, want string }{
		{header + event("audit.window", `{"placed":"four"}`), "record 2: partaudit: audit.window"},
		{event("audit.layer", `{"groups":[{"pieces":7}]}`), "record 1: partaudit: audit.layer"},
		{event("audit.decision", `{"cands":{"piece":0}}`), "record 1: partaudit: audit.decision"},
		{event("audit.wormhole", `{}`), "unknown audit event"},
		{header + header, "a second header"},
	} {
		_, err := decodeText(tc.in + window)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("decoding %q: err = %v, want %q", tc.in, err, tc.want)
		}
	}
	log, err := decodeText(event("partition.stream", `{"k":"eight"}`) + window)
	if err != nil || len(log.Windows) != 1 {
		t.Fatalf("a non-audit event: err=%v windows=%d", err, len(log.Windows))
	}
}
