package recordlog_test

import (
	"io"
	"strings"
	"testing"

	"bpart/internal/recordlog"
	"bpart/internal/servestats"
	"bpart/internal/traceview"
)

// family adapts one log family's reader to a common verdict: how many
// records it kept, whether it flagged a torn tail, or the error.
type family struct {
	name string // the error prefix
	view string // the subtest name, when it is not the error prefix
	what string // the records' name in the all-garbage error
	good string // one valid line
	read func(io.Reader) (records int, truncated bool, err error)
}

var families = []family{
	{
		name: "traceview", what: "trace",
		good: `{"ts":"2026-08-06T10:11:12.13Z","type":"event","name":"cap.hit","attrs":{"k":8}}`,
		read: func(r io.Reader) (int, bool, error) {
			tr, err := traceview.Read(r)
			if err != nil {
				return 0, false, err
			}
			return len(tr.Records), tr.Truncated, nil
		},
	},
	{
		// Not a format: the partition decision audit is a trace's audit.*
		// events. The row pins that the audit decode adds no tolerance of
		// its own to the trace reader's verdict.
		name: "traceview", view: "partaudit", what: "trace",
		good: `{"ts":"2026-08-06T10:11:12.13Z","type":"event","name":"audit.combine","attrs":{"layer":1,"round":0,"a_pieces":[0],"a_v":1,"a_e":2,"b_pieces":[1],"b_v":3,"b_e":4}}`,
		read: func(r io.Reader) (int, bool, error) {
			tr, err := traceview.Read(r)
			if err != nil {
				return 0, false, err
			}
			a, err := tr.Audit()
			if err != nil {
				return 0, tr.Truncated, err
			}
			return len(a.Merges), a.Truncated, nil
		},
	},
	{
		// Not a format either: a resource log is a trace whose spans
		// carry res_* attrs. The row pins that the span table's decode of
		// them adds no tolerance of its own to the trace reader's verdict.
		name: "traceview", view: "spans", what: "trace",
		good: `{"ts":"2026-08-06T10:11:12.13Z","type":"span","name":"partition.stream","dur_us":123.5,"attrs":{"res_allocs":10,"res_alloc_bytes":4096,"res_heap_bytes":1000,"res_gc_cycles":1,"res_gc_pause_us":5,"res_goroutines":2}}`,
		read: func(r io.Reader) (int, bool, error) {
			tr, err := traceview.Read(r)
			if err != nil {
				return 0, false, err
			}
			sums, err := traceview.SummarizeSpans(tr)
			if err != nil || len(sums) == 0 {
				return 0, tr.Truncated, err
			}
			return sums[0].Count, tr.Truncated, nil
		},
	},
	{
		name: "servestats", what: "request",
		good: `{"v":1,"type":"request","seq":1,"endpoint":"lookup","vertex":7,"part":0,"version":1,"status":200,"latency_us":12.5}`,
		read: func(r io.Reader) (int, bool, error) {
			l, err := servestats.Read(r)
			if err != nil {
				return 0, false, err
			}
			return len(l.Records), l.Truncated, nil
		},
	},
}

// The two formats' readers sit on one Scan, so the same damage must draw
// the same verdict from each — and the error strings the CLIs print (pinned by the
// cmd/tracestat diagnostics tests) must not drift.
func TestFamiliesShareOneVerdict(t *testing.T) {
	const (
		jsonGarbage = "invalid character 'o' in literal null (expecting 'u')"
		jsonTorn    = "unexpected end of JSON input"
	)
	long := `{"pad":"` + strings.Repeat("x", recordlog.MaxLine) + `"}`
	for _, fam := range families {
		good := fam.good
		torn := good[:len(good)/2]
		for _, tc := range []struct {
			name      string
			in        string
			records   int
			truncated bool
			err       string
		}{
			{name: "empty", in: ""},
			{name: "blank lines", in: "\n" + good + "\n\n \t\n" + good + "\n", records: 2},
			{name: "CRLF", in: good + "\r\n" + good + "\r\n", records: 2},
			{name: "torn tail", in: good + "\n" + torn, records: 1, truncated: true},
			{name: "garbage tail", in: good + "\n" + good + "\nnot json\n", records: 2, truncated: true},
			{name: "interior damage", in: good + "\n" + torn + "\n" + good + "\n",
				err: fam.name + ": line 2: " + jsonTorn + " (not the final line, refusing to skip)"},
			{name: "garbage first", in: "not json\n" + good + "\n",
				err: fam.name + ": line 1: " + jsonGarbage + " (not the final line, refusing to skip)"},
			{name: "all garbage", in: "not json\n",
				err: fam.name + ": line 1: " + jsonGarbage + " (no valid " + fam.what + " records precede it)"},
			{name: "only a torn line", in: torn,
				err: fam.name + ": line 1: " + jsonTorn + " (no valid " + fam.what + " records precede it)"},
			{name: "over-long line", in: good + "\n" + long + "\n",
				err: fam.name + ": read: bufio.Scanner: token too long"},
		} {
			label := fam.view
			if label == "" {
				label = fam.name
			}
			t.Run(label+"/"+tc.name, func(t *testing.T) {
				records, truncated, err := fam.read(strings.NewReader(tc.in))
				if tc.err != "" {
					if err == nil || err.Error() != tc.err {
						t.Fatalf("err = %v, want %q", err, tc.err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if records != tc.records || truncated != tc.truncated {
					t.Fatalf("records=%d truncated=%v, want %d/%v", records, truncated, tc.records, tc.truncated)
				}
			})
		}
	}
}
