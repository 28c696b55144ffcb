package netsim

import (
	"math"
	"testing"
)

func TestPointToPoint(t *testing.T) {
	p := Profile{Bandwidth: 1e9, Latency: 1e-6}
	got := p.PointToPoint(1e6)
	want := 1e-6 + 1e-3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("p2p %g want %g", got, want)
	}
}

func TestSingleNodeFree(t *testing.T) {
	if InfiniBandFDR.RingAllreduce(1, 1<<20) != 0 ||
		InfiniBandFDR.Allgather(1, 1<<20) != 0 ||
		InfiniBandFDR.Broadcast(1, 1<<20) != 0 {
		t.Fatal("collectives on one node must be free")
	}
}

// Fig. 11: allgather time grows (almost exactly) linearly with node count.
func TestAllgatherLinearInNodes(t *testing.T) {
	m := 250 << 20 // AlexNet gradients
	t4 := InfiniBandFDR.Allgather(4, m)
	t8 := InfiniBandFDR.Allgather(8, m)
	t16 := InfiniBandFDR.Allgather(16, m)
	// steps n-1: ratios (8-1)/(4-1) etc.
	if r := t8 / t4; math.Abs(r-7.0/3.0) > 0.01 {
		t.Fatalf("t8/t4 = %g want 7/3", r)
	}
	if r := t16 / t8; math.Abs(r-15.0/7.0) > 0.01 {
		t.Fatalf("t16/t8 = %g want 15/7", r)
	}
}

// Ring allreduce volume is (nearly) independent of node count — the
// property that makes it the default for uncompressed training.
func TestRingAllreduceNearlyFlat(t *testing.T) {
	m := 250 << 20
	t4 := InfiniBandFDR.RingAllreduce(4, m)
	t32 := InfiniBandFDR.RingAllreduce(32, m)
	if t32 > t4*1.5 {
		t.Fatalf("ring allreduce should be nearly flat: %g vs %g", t4, t32)
	}
}

// Compressed allgather must beat uncompressed ring allreduce at the
// paper's operating point (8 nodes, ratio ≈16), and lose without enough
// compression — the trade the paper navigates.
func TestCompressionCrossover(t *testing.T) {
	m := 250 << 20
	n := 8
	uncompressed := InfiniBandFDR.RingAllreduce(n, m)
	atRatio := func(k float64) float64 {
		return InfiniBandFDR.Allgather(n, int(float64(m)/k))
	}
	if atRatio(16) >= uncompressed {
		t.Fatalf("16x-compressed allgather (%.4fs) should beat allreduce (%.4fs)", atRatio(16), uncompressed)
	}
	if atRatio(2) <= uncompressed {
		t.Fatalf("2x-compressed allgather (%.4fs) should lose to allreduce (%.4fs)", atRatio(2), uncompressed)
	}
}

func TestBroadcastLog(t *testing.T) {
	m := 1 << 20
	t2 := InfiniBandFDR.Broadcast(2, m)
	t8 := InfiniBandFDR.Broadcast(8, m)
	if r := t8 / t2; math.Abs(r-3) > 0.01 {
		t.Fatalf("log2 rounds: t8/t2 = %g want 3", r)
	}
}

func TestHierarchicalFlatWithinHost(t *testing.T) {
	h := CometCluster()
	m := 6 << 20
	t2 := h.Allgather(2, m)
	t4 := h.Allgather(4, m)
	t8 := h.Allgather(8, m)
	// Within one host: PCIe only; crossing hosts adds the IB stage, so
	// cost must jump at 8 ranks (the Fig. 16 "similar speedup ≤4 GPUs").
	if t4 >= t8 {
		t.Fatalf("crossing hosts must cost more: t4=%g t8=%g", t4, t8)
	}
	if t2 >= t4*2 {
		t.Fatalf("intra-host growth too steep: t2=%g t4=%g", t2, t4)
	}
}

// Faster fabric ⇒ cheaper collective, everywhere.
func TestFasterFabricCheaper(t *testing.T) {
	for _, n := range []int{2, 8, 32} {
		for _, m := range []int{1 << 10, 1 << 24} {
			if InfiniBandFDR.Allgather(n, m) >= Ethernet1G.Allgather(n, m) {
				t.Fatalf("IB should beat 1GbE at n=%d m=%d", n, m)
			}
		}
	}
}

// TestTreeReduceRegimes: the tree is latency-bound (log n rounds) for
// small messages and pays full-m per round for large ones — so it beats
// the ring on small buffers and loses on big ones.
func TestTreeReduce(t *testing.T) {
	if got := InfiniBandFDR.TreeReduce(1, 1<<20); got != 0 {
		t.Fatalf("single node tree reduce = %v, want 0", got)
	}
	t2 := InfiniBandFDR.TreeReduce(2, 1<<20)
	t8 := InfiniBandFDR.TreeReduce(8, 1<<20)
	if r := t8 / t2; math.Abs(r-3) > 0.01 {
		t.Fatalf("log2 rounds: t8/t2 = %g want 3", r)
	}
	// Small message, many ranks: log n latency terms beat 2(n-1).
	if tree, ring := InfiniBandFDR.TreeReduce(64, 256), InfiniBandFDR.RingAllreduce(64, 256); tree >= ring {
		t.Fatalf("small-message tree (%g) should beat ring (%g)", tree, ring)
	}
	// Huge message: the ring pipelines m/n per step and wins.
	if tree, ring := InfiniBandFDR.TreeReduce(64, 250<<20), InfiniBandFDR.RingAllreduce(64, 250<<20); tree <= ring {
		t.Fatalf("large-message tree (%g) should lose to ring (%g)", tree, ring)
	}
}
