package servestats

import (
	"strings"
	"testing"
)

const goodLine = `{"v":1,"type":"request","seq":1,"endpoint":"lookup","vertex":7,"part":0,"version":1,"status":200,"latency_us":12.5}`

func TestReadTornFinalLine(t *testing.T) {
	l, err := Read(strings.NewReader(goodLine + "\n" + `{"v":1,"type":"requ`))
	if err != nil {
		t.Fatal(err)
	}
	if !l.Truncated || len(l.Records) != 1 {
		t.Fatalf("truncated=%v records=%d", l.Truncated, len(l.Records))
	}
}

func TestReadInteriorDamageIsHardError(t *testing.T) {
	if _, err := Read(strings.NewReader("garbage\n" + goodLine + "\n")); err == nil {
		t.Fatal("interior damage tolerated")
	}
}

func TestReadAllGarbageIsHardError(t *testing.T) {
	for _, in := range []string{
		"not a request log\n",
		`{"v":1,"type":"wormhole"}` + "\n",
		`{"v":99,"type":"request","endpoint":"lookup"}` + "\n",
		`{"v":1,"type":"request","endpoint":"teleport"}` + "\n",
		`{"v":1,"type":"request","endpoint":"lookup","latency_us":-3}` + "\n",
		`{"v":1,"type":"request","endpoint":"lookup","part":-2}` + "\n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestReadEmptyAndBlank(t *testing.T) {
	for _, in := range []string{"", "\n\n  \n"} {
		l, err := Read(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if len(l.Records) != 0 || l.Truncated {
			t.Fatalf("%q parsed to %+v", in, l)
		}
	}
}

// A request line decodes to every field it carries: the deterministic
// routing fields and the wall-clock latency beside them.
func TestReadDecodesFields(t *testing.T) {
	l, err := Read(strings.NewReader(goodLine + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Seq: 1, Endpoint: EndpointLookup, Vertex: 7, Part: 0, Version: 1, Status: 200, LatencyUS: 12.5}
	if len(l.Records) != 1 || l.Records[0] != want {
		t.Fatalf("decoded %+v, want [%+v]", l.Records, want)
	}
}
