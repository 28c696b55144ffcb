package guard

import (
	"math"
	"runtime/debug"
	"testing"

	"fftgrad/internal/compress"
	"fftgrad/internal/feedback"
)

// TestAccumulateRejectsBeforeWrite: a message the decoder rejects leaves
// the running sum untouched — a frame whose CRC fails (the inner decoder
// never sees it), a message cut short and a message for another length —
// for every codec, bare, framed and under error feedback. The parameter
// sync's codecs (FP32, bare or framed) decode a payload straight into the
// live parameters, so their DecompressInto must reject the same messages
// before it writes too.
func TestAccumulateRejectsBeforeWrite(t *testing.T) {
	const n = 3000
	grad := stackGrad(n)
	codecs := []func() compress.Compressor{
		func() compress.Compressor { return compress.FP32{} },
		func() compress.Compressor { return compress.NewFFT(0.85) },
		func() compress.Compressor { return compress.NewDCT(0.85) },
		func() compress.Compressor { return compress.NewTopK(0.85) },
		func() compress.Compressor { return compress.NewQSGD(3) },
		func() compress.Compressor { return compress.NewTernGrad() },
	}
	for _, mk := range codecs {
		for _, c := range []compress.Compressor{
			mk(), NewFramed(mk(), true), NewFramed(mk(), false), feedback.New(mk()),
		} {
			msg, err := c.AppendCompress(nil, grad)
			if err != nil {
				t.Fatal(err)
			}
			rows := []struct {
				name string
				msg  []byte
				n    int
			}{
				{"truncated", msg[:len(msg)-1], n},
				{"wrong length", msg, n + 1},
			}
			if f, ok := c.(*Framed); ok && f.crc {
				corrupt := append([]byte(nil), msg...)
				corrupt[len(corrupt)-1] ^= 0x10
				rows = append(rows, struct {
					name string
					msg  []byte
					n    int
				}{"corrupt CRC", corrupt, n})
			}
			type decoder struct {
				name   string
				decode func(dst []float32, msg []byte) error
			}
			decoders := []decoder{{"accumulate", func(dst []float32, msg []byte) error {
				return compress.AccumulateInto(c, dst, msg, 0.5, 1.0/3)
			}}}
			if n := c.Name(); n == "fp32" || n == "fp32+crc" || n == "fp32+frame" {
				decoders = append(decoders, decoder{"decompress", c.DecompressInto})
			}
			for _, d := range decoders {
				for _, row := range rows {
					dst := make([]float32, row.n)
					for i := range dst {
						dst[i] = float32(i) - 0.5
					}
					if err := d.decode(dst, row.msg); err == nil {
						t.Errorf("%s %s %s: accepted", c.Name(), d.name, row.name)
						continue
					}
					for i, v := range dst {
						if math.Float32bits(v) != math.Float32bits(float32(i)-0.5) {
							t.Errorf("%s %s %s: element %d written (%v) before the rejection", c.Name(), d.name, row.name, i, v)
							break
						}
					}
				}
			}
		}
	}
}

// TestDecoratedAccumulateZeroAlloc: folding a message into a sum through
// CRC framing and error feedback allocates nothing in steady state, like
// the decode it replaces.
func TestDecoratedAccumulateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	grad := stackGrad(5000)
	sum := make([]float32, len(grad))
	for _, c := range []compress.Compressor{
		NewFramed(compress.NewFFT(0.85), true),
		NewFramed(feedback.New(compress.FP32{}), true),
		NewFramed(compress.NewTopK(0.85), false),
	} {
		msg, err := c.AppendCompress(nil, grad)
		if err != nil {
			t.Fatal(err)
		}
		fold := func() {
			if err := compress.AccumulateInto(c, sum, msg, 0.5, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // warm pools, plan caches, the decode-side quantizer
			fold()
		}
		func() {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if a := testing.AllocsPerRun(50, fold); a != 0 {
				t.Errorf("%s: steady-state accumulate allocates %.2f allocs/op, want 0", c.Name(), a)
			}
		}()
	}
}
