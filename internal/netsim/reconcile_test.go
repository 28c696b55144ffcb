package netsim

import (
	"math"
	"testing"
)

func TestReconciliationRatio(t *testing.T) {
	var r Reconciliation
	if r.Ratio() != 1 {
		t.Fatalf("empty reconciliation ratio = %v, want 1", r.Ratio())
	}
	r.Add(0.010, 0.020)
	r.Add(0.030, 0.060)
	if got := r.Ratio(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("ratio = %v, want 2", got)
	}
	if r.Samples() != 2 {
		t.Fatalf("samples = %d, want 2", r.Samples())
	}
	r.Add(-1, 5) // ignored
	r.Add(5, 0)  // ignored
	if r.Samples() != 2 {
		t.Fatalf("invalid pairs were counted")
	}
}
