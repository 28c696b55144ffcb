package perfmodel

import (
	"errors"
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	if err := GPUReference().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Throughputs{Tm: 1, Tf: 1, Tp: 0, Ts: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero throughput must fail")
	}
}

func TestEquationConsistency(t *testing.T) {
	// cost_comm(k) + saved(k) must equal the uncompressed cost M/Tcomm.
	m := 100 << 20
	tcomm := 7e9
	for _, k := range []float64{1.5, 2, 10, 100} {
		total := CommunicationCost(m, tcomm, k) + SavedCost(m, tcomm, k)
		want := float64(m) / tcomm
		if math.Abs(total-want) > 1e-9*want {
			t.Fatalf("k=%g: %g + %g != %g", k, CommunicationCost(m, tcomm, k), SavedCost(m, tcomm, k), want)
		}
	}
}

func TestMinRatioAtBreakEven(t *testing.T) {
	tp := GPUReference()
	tcomm := 7e9 // 56 Gbps
	k, err := MinBeneficialRatio(tcomm, tp)
	if err != nil {
		t.Fatal(err)
	}
	// At exactly k the benefit must be ~zero; slightly above it must win;
	// slightly below must lose.
	m := 100 << 20
	beneficial := func(k float64) bool { return 2*CompressionCost(m, tp) < SavedCost(m, tcomm, k) }
	if beneficial(k * 0.99) {
		t.Fatalf("k slightly below minimum (%.2f) should not be beneficial", k)
	}
	if !beneficial(k * 1.01) {
		t.Fatalf("k slightly above minimum (%.2f) should be beneficial", k)
	}
}

// Fig. 10's qualitative claims: slow networks need tiny k; the paper's
// FDR InfiniBand needs k ≈ tens; beyond MaxTolerableTcomm nothing helps.
func TestFig10Shape(t *testing.T) {
	tp := GPUReference()

	k1g, err := MinBeneficialRatio(1e9/8, tp) // 1 Gbps
	if err != nil {
		t.Fatal(err)
	}
	if k1g > 1.1 {
		t.Fatalf("1GbE minimal ratio %.3f should be ≈1", k1g)
	}

	k10g, err := MinBeneficialRatio(10e9/8, tp) // 10 Gbps
	if err != nil {
		t.Fatal(err)
	}
	if k10g < k1g {
		t.Fatal("faster network must need a larger ratio")
	}
	if k10g > 3 {
		t.Fatalf("10GbE minimal ratio %.3f should be small (paper: ≈2)", k10g)
	}

	kIB, err := MinBeneficialRatio(56e9/8, tp) // 56 Gbps FDR
	if err != nil {
		t.Fatal(err)
	}
	if kIB < 5 || kIB > 100 {
		t.Fatalf("FDR minimal ratio %.1f out of the paper's ballpark (≈30)", kIB)
	}

	// Make the pipeline slower until no ratio helps.
	slow := tp
	slow.Ts = 2e9
	slow.Tp = 2e9
	if _, err := MinBeneficialRatio(56e9/8, slow); !errors.Is(err, ErrNoBeneficialRatio) {
		t.Fatalf("slow pipeline on fast network should have no beneficial ratio, got %v", err)
	}
}

func TestMaxTolerableTcomm(t *testing.T) {
	tp := GPUReference()
	limit := MaxTolerableTcomm(tp)
	if _, err := MinBeneficialRatio(limit*0.99, tp); err != nil {
		t.Fatalf("just below the limit must still work: %v", err)
	}
	if _, err := MinBeneficialRatio(limit*1.01, tp); !errors.Is(err, ErrNoBeneficialRatio) {
		t.Fatalf("just above the limit must fail, got %v", err)
	}
}

func TestEndToEnd(t *testing.T) {
	tp := GPUReference()
	m := 250 << 20
	tcomm := 7e9
	k, err := MinBeneficialRatio(tcomm, tp)
	if err != nil {
		t.Fatal(err)
	}
	with, without := EndToEnd(m, tcomm, 2*k, tp)
	if with >= without {
		t.Fatalf("at 2x the minimal ratio, compression must win: %g vs %g", with, without)
	}
	with, _ = EndToEnd(m, tcomm, k/2, tp)
	if with <= without {
		t.Fatalf("at half the minimal ratio, compression must lose: %g vs %g", with, without)
	}
}

func TestMonotonicityInK(t *testing.T) {
	tp := GPUReference()
	m := 100 << 20
	prev := math.Inf(1)
	for k := 1.0; k <= 64; k *= 2 {
		with, _ := EndToEnd(m, 7e9, k, tp)
		if with > prev {
			t.Fatalf("end-to-end time must fall with k: %g then %g", prev, with)
		}
		prev = with
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := MinBeneficialRatio(-1, GPUReference()); err == nil {
		t.Fatal("negative tcomm must error")
	}
	if _, err := MinBeneficialRatio(1e9, Throughputs{}); err == nil {
		t.Fatal("zero throughputs must error")
	}
}
