package collective

import (
	"math"
	"testing"

	"fftgrad/internal/netsim"
)

// TestCrossoverShift is the netsim acceptance gate: at 64, 256 and 1024
// simulated ranks, the minimum compression ratio k_min at which the
// compressed exchange beats the FP32 ring allreduce must shift with rank
// count in the direction AND approximate magnitude the Sec. 3.3 analytic
// model predicts — for the flat ring, the hierarchical strategy, and the
// bucketed ring.
//
// Closed forms (α/β model, M bytes, bandwidth B, latency L):
//
//	flat ring:  (n−1)(L + (M/k)/B) = 2(n−1)(L + M/(nB))
//	            ⇒ k_min = (M/B) / (L + 2M/(nB))
//	hier(g):    (g+G−2)L + (n−1)(M/k)/B = 2(n−1)L + 2(n−1)M/(nB)
//	            ⇒ k_min = (M/B) / ((2 − (g+G−2)/(n−1))L + 2M/(nB))
//
// Both grow as n grows (the 2M/(nB) term vanishes, leaving the latency
// floor), which is exactly why flat-ring compression stops paying at
// scale and the hierarchical schedule (half the latency floor: its
// asymptote is (M/B)/2L vs (M/B)/L) keeps the crossover reachable.
func TestCrossoverShift(t *testing.T) {
	pr := netsim.Ethernet10G
	const M = 4 << 20 // 4 MiB gradient (2^20 float32)
	ranks := []int{64, 256, 1024}

	flat := Config{Strategy: Ring}.WithDefaults()
	hier := Config{Strategy: Hier, GroupSize: 8}.WithDefaults()

	closedFlat := func(n int) float64 {
		return (float64(M) / pr.Bandwidth) / (pr.Latency + 2*float64(M)/(float64(n)*pr.Bandwidth))
	}
	closedHier := func(n int) float64 {
		g := hier.GroupSize
		G := (n + g - 1) / g
		coef := 2 - float64(g+G-2)/float64(n-1)
		return (float64(M) / pr.Bandwidth) / (coef*pr.Latency + 2*float64(M)/(float64(n)*pr.Bandwidth))
	}

	var prevF, prevH float64
	kF := map[int]float64{}
	kH := map[int]float64{}
	for _, n := range ranks {
		f := flat.KMin(pr, n, M)
		h := hier.KMin(pr, n, M)
		kF[n], kH[n] = f, h
		t.Logf("n=%4d  k_min flat=%.1f (analytic %.1f)  hier=%.1f (analytic %.1f)",
			n, f, closedFlat(n), h, closedHier(n))

		// Direction: k_min grows with rank count.
		if f <= prevF || h <= prevH {
			t.Fatalf("n=%d: k_min did not grow (flat %.2f after %.2f, hier %.2f after %.2f)", n, f, prevF, h, prevH)
		}
		prevF, prevH = f, h

		// Magnitude: bisected k_min matches the closed form within 3%.
		if rel := math.Abs(f-closedFlat(n)) / closedFlat(n); rel > 0.03 {
			t.Errorf("n=%d flat k_min %.2f deviates %.1f%% from analytic %.2f", n, f, 100*rel, closedFlat(n))
		}
		if rel := math.Abs(h-closedHier(n)) / closedHier(n); rel > 0.03 {
			t.Errorf("n=%d hier k_min %.2f deviates %.1f%% from analytic %.2f", n, h, 100*rel, closedHier(n))
		}

		// The hierarchical schedule needs strictly less compression to win.
		if h >= f {
			t.Errorf("n=%d: hier k_min %.2f not below flat %.2f", n, h, f)
		}
	}
	// The hierarchical crossover also shifts *slower*: its latency floor
	// is half the flat ring's.
	if rH, rF := kH[1024]/kH[64], kF[1024]/kF[64]; rH >= rF {
		t.Errorf("hier crossover growth %.2fx should undercut flat %.2fx", rH, rF)
	}

}

// TestModelTreeSmallMessage: for small messages the tree model must
// undercut the flat ring allgather (log vs linear latency), and fall
// back to the ring price when the fabric has no link term.
func TestModelTreeSmallMessage(t *testing.T) {
	pr := netsim.InfiniBandFDR
	tree := Config{Strategy: Tree}.WithDefaults()
	flat := Config{Strategy: Ring}.WithDefaults()
	if tt, ft := tree.ModelAllgather(pr, 256, 64), flat.ModelAllgather(pr, 256, 64); tt >= ft {
		t.Fatalf("small-message tree %g should beat flat %g", tt, ft)
	}
	// netsim.Hierarchical has no PointToPoint: fall back to ring price.
	hf := netsim.CometCluster()
	if got, want := tree.ModelAllgather(hf, 16, 1000), hf.Allgather(16, 1000); got != want {
		t.Fatalf("fallback price %g, want %g", got, want)
	}
}

// TestModelMatchesNetsimShapes: the hier strategy model over a flat
// profile equals the two-stage sum netsim.Hierarchical would price with
// the same group size on the same fabric for both stages.
func TestModelMatchesNetsimShapes(t *testing.T) {
	pr := netsim.Ethernet10G
	cfg := Config{Strategy: Hier, GroupSize: 4}.WithDefaults()
	n, m := 64, 10000
	want := pr.Allgather(4, m) + pr.Allgather(16, 4*m)
	if got := cfg.ModelAllgather(pr, n, m); math.Abs(got-want) > 1e-12 {
		t.Fatalf("hier model %g, want %g", got, want)
	}
}
