package dist

import (
	"runtime"
	"testing"

	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/models"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
)

// TestTrainHeapPerParam bounds what a training run keeps live per
// parameter per rank: an MLP of n = 1,029,632 at P = 2, read after a
// collection at the end of the third block, when both ranks are past
// their first exchanges (every buffer sized, every plan built) and rank 1
// is waiting for rank 0 in the fourth. What was live before the run —
// the process-wide cfft plans an earlier row built, say — is left out.
//
// The budget, in B/param/rank (N = 2^20 is the padded transform length,
// N/n ≈ 1.02):
//
//   - both codecs: the model's parameters, gradient, momentum and the
//     averaged gradient, 4 × 4 = 16; rank 0's sync payload, an FP32
//     message of the parameters shared over two ranks, 2;
//   - FP32: the wire message, double-buffered because peers read
//     iteration i's while this rank encodes i+1, 2 × 4 = 8; 26 in all;
//   - FFT: the codec's spectrum, N/2+1 complex128 bins, 8·N/n ≈ 8.15,
//     and its real work array, N+2 float64, ≈ 8.15, one pair per codec
//     serving both directions; the cfft plans at N, shared by both ranks
//     (a real plan's untangle table over the N/2-point complex plan's
//     twiddles, 16.8 MB), ≈ 8.15; the surviving values, the messages and
//     the masks, ≈ 1.3; 44 in all.
//   - FFT in sixteen 256 KiB buckets: the bucket codecs share two
//     workspaces, one the compress stage works in and one the average,
//     each a spectrum and a work array at the bucket's N = 2^16, 4 × 0.5
//     MB per rank, ≈ 2.05; the plans at 2^16, shared by both ranks,
//     ≈ 0.5; a quantizer cache per bucket, ≈ 0.3; the surviving values,
//     the messages and the masks, ≈ 1.3; 22 in all. It read 37 while
//     every bucket codec kept a workspace of its own.
//
// Before each model-size codec buffer had one owner the FFT run read 62.5
// here: a codec's encode and decode minted a spectrum each, and the
// widened signal, the magnitudes, the inverse's output and the threshold
// search's candidates were float64 buffers held in scratch pools.
func TestTrainHeapPerParam(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const p, blocks = 2, 3
	train, _ := data.GaussianBlobs(64+8, 32, 256, 3.0, 1).Split(64)
	fft := func() compress.Compressor { return compress.NewFFT(0.85) }
	for _, c := range []struct {
		name        string
		codec       func() compress.Compressor
		bucketBytes int
		max         float64 // B/param/rank
	}{
		{"fp32", func() compress.Compressor { return compress.FP32{} }, 0, 27},
		{"fft", fft, 0, 45},
		{"fft-bucketed", fft, 256 << 10, 25},
	} {
		t.Run(c.name, func(t *testing.T) {
			var n int
			var before, live uint64
			var ms runtime.MemStats
			cfg := Config{
				Workers:       p,
				Batch:         4,
				Epochs:        blocks + 1, // rank 1 is still live at the third block's end
				ItersPerEpoch: 4,
				Seed:          1,
				Momentum:      0.9,
				LR:            optim.ConstLR(0.001),
				Model: func(s int64) *nn.Network {
					net := models.MLP(256, 880, 32, s)
					n = net.NumParams()
					return net
				},
				Train:         train,
				NewCompressor: c.codec,
				OnEpoch: func(e EpochStats) {
					if e.Epoch == blocks-1 {
						runtime.GC()
						runtime.ReadMemStats(&ms)
						live = ms.HeapAlloc - before
					}
				},
			}
			if c.bucketBytes > 0 {
				cfg.Collective = &collective.Config{BucketBytes: c.bucketBytes}
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before = ms.HeapAlloc
			if _, err := Train(cfg); err != nil {
				t.Fatal(err)
			}
			per := float64(live) / float64(n*p)
			t.Logf("%s: live heap %.1f MB at n = %d, P = %d: %.1f B/param/rank", c.name, float64(live)/1e6, n, p, per)
			if per > c.max {
				t.Errorf("%s: live heap %.1f B/param/rank, want ≤ %.0f", c.name, per, c.max)
			}
		})
	}
}
