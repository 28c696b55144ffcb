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

func TestReconciliationApply(t *testing.T) {
	var r Reconciliation
	r.Add(0.010, 0.020) // fabric is 2x slower than modeled
	p := r.Apply(Ethernet10G)
	if math.Abs(p.Bandwidth-Ethernet10G.Bandwidth/2) > 1 {
		t.Errorf("bandwidth = %v, want halved %v", p.Bandwidth, Ethernet10G.Bandwidth/2)
	}
	if math.Abs(p.Latency-Ethernet10G.Latency*2) > 1e-12 {
		t.Errorf("latency = %v, want doubled %v", p.Latency, Ethernet10G.Latency*2)
	}
	// The rescaled profile now predicts the measured time.
	if got, want := p.Allgather(4, 1<<20), 2*Ethernet10G.Allgather(4, 1<<20); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("reconciled allgather = %v, want %v", got, want)
	}
}
