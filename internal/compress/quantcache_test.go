package compress

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"testing"
)

// TestZeroAllocTwoSenders decodes two senders' messages alternately through
// one codec, as every receiver with P >= 2 does: each sender tunes its own
// quantizer, and the decode side rebuilds each from its header into the
// call's pooled state.
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

// TestRetuneAllocs: a quantizer re-tune, forced by a coefficient range
// that drifts past the hysteresis every call, allocates nothing — the
// tuner searches over values and writes the winner in place.
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
	if n := testing.AllocsPerRun(20, retune); n != 0 {
		t.Errorf("a re-tune allocates %.2f allocs/op, want 0", n)
	}
}

// TestConcurrentAccumulateRetuning runs four goroutines of AccumulateInto
// on one receiving Transform, fed by one sending Transform whose range
// moves 4x between messages, so nearly every message carries a new
// quantizer: each fold must equal a private codec's, bit for bit. Run
// under -race it checks that calls on one codec serialize on its lock:
// no decode sees another's rebuilt quantizer or spectrum.
func TestConcurrentAccumulateRetuning(t *testing.T) {
	for _, mk := range []func(float64) *Transform{NewFFT, NewDCT} {
		send, recv := mk(0.85), mk(0.85)
		t.Run(recv.Name(), func(t *testing.T) {
			base := allocGrad(5000)
			iters := 40
			if testing.Short() {
				iters = 10
			}
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for g := range errs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					ref := mk(0.85)
					grad := make([]float32, len(base))
					got, want := make([]float32, len(base)), make([]float32, len(base))
					var msg []byte
					for i := 0; i < iters; i++ {
						scale := float32(math.Pow(4, float64((g+i)%2)))
						for k, v := range base {
							grad[k] = v * scale
						}
						var err error
						if msg, err = send.AppendCompress(msg[:0], grad); err != nil {
							errs[g] = err
							return
						}
						clear(got)
						clear(want)
						if err := recv.AccumulateInto(got, msg, 0.5, 2); err != nil {
							errs[g] = err
							return
						}
						if err := ref.AccumulateInto(want, msg, 0.5, 2); err != nil {
							errs[g] = err
							return
						}
						for k := range want {
							if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
								errs[g] = fmt.Errorf("goroutine %d message %d: value %d is %g, want %g", g, i, k, got[k], want[k])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
		})
	}
}
