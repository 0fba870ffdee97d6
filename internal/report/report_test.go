package report

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	buf bytes.Buffer
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.buf.Len()+len(p) > f.n {
		return 0, f.err
	}
	return f.buf.Write(p)
}

func TestPrinterSticky(t *testing.T) {
	var buf bytes.Buffer
	p := &Printer{W: &buf}
	p.Printf("%d-%s\n", 1, "a")
	if p.Err != nil || buf.String() != "1-a\n" {
		t.Fatalf("Printf wrote %q, err %v", buf.String(), p.Err)
	}
	wantErr := errors.New("closed pipe")
	sink := &failAfter{n: 2, err: wantErr}
	p = &Printer{W: sink}
	p.Printf("ab")
	p.Printf("cd") // fails
	p.Printf("e")  // would fit, but the printer is already failed
	if !errors.Is(p.Err, wantErr) || sink.buf.String() != "ab" {
		t.Fatalf("Err = %v, sink %q", p.Err, sink.buf.String())
	}
}

func TestBar(t *testing.T) {
	for _, tc := range []struct {
		v, max float64
		width  int
		want   string
	}{
		{5, 10, 10, "#####....."},
		{0, 10, 4, "...."},
		{20, 10, 4, "####"}, // over max clamps
		{1, 0, 4, "...."},   // no scale
		{-1, 10, 4, "...."},
	} {
		if got := Bar(tc.v, tc.max, tc.width); got != tc.want {
			t.Errorf("Bar(%v,%v,%d) = %q, want %q", tc.v, tc.max, tc.width, got, tc.want)
		}
	}
}

func TestMax(t *testing.T) {
	at := func(xs ...float64) func(int) float64 { return func(i int) float64 { return xs[i] } }
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{-2, -1}, 0}, // floored at zero
		{[]float64{1, 3, 2}, 3},
		{[]float64{math.NaN(), 2, math.NaN()}, 2},
	} {
		if got := Max(len(tc.xs), at(tc.xs...)); got != tc.want {
			t.Errorf("Max(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := Max(3, func(i int) int64 { return int64(10 - i) }); got != 10 {
		t.Errorf("int64 Max = %d, want 10", got)
	}
}
