package compress

import (
	"math"
	"runtime/debug"
	"testing"
)

// TestZeroAllocTwoSenders decodes two senders' messages alternately through
// one codec, as every receiver with P >= 2 does: each sender tunes its own
// quantizer, and the decode side must keep both (a one-slot cache rebuilt
// a quantizer on every message).
func TestZeroAllocTwoSenders(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, mk := range []func(float64) *Transform{NewFFT, NewDCT} {
		recv := mk(0.85)
		t.Run(recv.Name(), func(t *testing.T) {
			ga, gb := allocGrad(5000), allocGrad(5000)
			for i := range gb {
				gb[i] *= 37 // a range the other sender's tuning does not cover
			}
			ma, err := mk(0.85).AppendCompress(nil, ga)
			if err != nil {
				t.Fatal(err)
			}
			mb, err := mk(0.85).AppendCompress(nil, gb)
			if err != nil {
				t.Fatal(err)
			}
			if string(ma[12:32]) == string(mb[12:32]) {
				t.Fatal("both senders tuned the same quantizer; the test needs two")
			}
			rec := make([]float32, len(ga))
			decode := func() {
				for _, m := range [][]byte{ma, mb} {
					if err := recv.DecompressInto(rec, m); err != nil {
						t.Fatal(err)
					}
				}
			}
			decode()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if n := testing.AllocsPerRun(50, decode); n != 0 {
				t.Errorf("alternating two senders allocates %.2f allocs/op, want 0", n)
			}
		})
	}
}

// TestDecoderCacheEvicts fills the decode cache past its capacity: every
// parameter set still decodes, the oldest are rebuilt on return.
func TestDecoderCacheEvicts(t *testing.T) {
	var qc quantCache
	hdr := func(i int) []uint32 {
		h := make([]uint32, transformHeaderWords)
		q, err := qc.encoder(10, float64(i+1), []float32{float32(i + 1), -float32(i+1) / 3})
		if err != nil {
			t.Fatal(err)
		}
		qc.enc = nil // force a fresh tuning per range
		h[3], h[4] = uint32(q.N), uint32(q.M)
		h[5], h[6], h[7] = math.Float32bits(q.Eps), math.Float32bits(q.Min), math.Float32bits(q.Max)
		return h
	}
	first, err := qc.decoder(hdr(0))
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := qc.decoder(hdr(0)); again != first {
		t.Fatal("a repeated parameter set rebuilt its decoder")
	}
	for i := 1; i <= decSlots; i++ {
		if _, err := qc.decoder(hdr(i)); err != nil {
			t.Fatal(err)
		}
	}
	again, err := qc.decoder(hdr(0))
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatalf("%d newer parameter sets did not evict the oldest", decSlots)
	}
	if again.Eps != first.Eps || again.Max != first.Max {
		t.Fatal("the rebuilt decoder differs from the evicted one")
	}
}

// TestRetuneAllocs bounds what a quantizer re-tune costs when the
// coefficient range drifts past the hysteresis: the tuner searches over
// values and only the winner reaches the heap.
func TestRetuneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var qc quantCache
	vals := allocGrad(3 * tuneSample)
	scale := 1.0
	retune := func() {
		scale *= 3 // past the 2x hysteresis every time
		if _, err := qc.encoder(10, scale, vals); err != nil {
			t.Fatal(err)
		}
	}
	retune()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(20, retune); n > 2 {
		t.Errorf("a re-tune allocates %.2f allocs/op, want <= 2", n)
	}
}
