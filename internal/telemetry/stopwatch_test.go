package telemetry

import (
	"testing"
	"time"
)

func TestStopwatchElapsedGrows(t *testing.T) {
	sw := NewStopwatch()
	time.Sleep(time.Millisecond)
	first := sw.Elapsed()
	if first <= 0 {
		t.Fatalf("Elapsed() = %v, want > 0", first)
	}
	time.Sleep(time.Millisecond)
	if second := sw.Elapsed(); second < first {
		t.Fatalf("Elapsed() went backwards: %v then %v", first, second)
	}
	if sw.Seconds() <= 0 {
		t.Fatalf("Seconds() = %v, want > 0", sw.Seconds())
	}
}
