package compress_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fftgrad/internal/compress"
	"fftgrad/internal/feedback"
	"fftgrad/internal/guard"
)

// The fused decode-accumulate against the dense decode it replaces: for
// every codec under every decorator, compress.AccumulateInto must leave in
// dst the bits of DecompressInto into a fresh slice followed by the loop
// dst[i] = (dst[i] + wt·x[i])·scale. (An external test package, so the
// decorators from guard and feedback can stack on the codecs.)

// accumulateRef is the dense decode and the reference loop.
func accumulateRef(c compress.Compressor, dst []float32, msg []byte, wt, scale float32) error {
	x := make([]float32, len(dst))
	if err := c.DecompressInto(x, msg); err != nil {
		return err
	}
	for i, v := range x {
		dst[i] = (dst[i] + wt*v) * scale
	}
	return nil
}

func accCodecs() []func() compress.Compressor {
	return []func() compress.Compressor{
		func() compress.Compressor { return compress.FP32{} },
		func() compress.Compressor { return compress.NewFFT(0.85) },
		func() compress.Compressor { return compress.NewDCT(0.85) },
		func() compress.Compressor { return compress.NewTopK(0.85) },
		func() compress.Compressor { return compress.NewQSGD(3) },
		func() compress.Compressor { return compress.NewTernGrad() },
	}
}

// accDecorators stack the layers a rank's codec can carry; the outermost
// one is what AccumulateInto sees.
var accDecorators = []struct {
	name string
	wrap func(compress.Compressor) compress.Compressor
}{
	{"bare", func(c compress.Compressor) compress.Compressor { return c }},
	{"crc", func(c compress.Compressor) compress.Compressor { return guard.NewFramed(c, true) }},
	{"frame", func(c compress.Compressor) compress.Compressor { return guard.NewFramed(c, false) }},
	{"ef", func(c compress.Compressor) compress.Compressor { return feedback.New(c) }},
}

// sameBits is raw-bit equality, with any two NaNs equal: which operand's
// payload a NaN sum inherits is not fixed for a commutative operation
// (DESIGN.md Sec. 10.6).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// specialDst draws the running sums an accumulation can meet: ±0,
// subnormals, ±Inf, NaN and normals.
func specialDst(rng *rand.Rand, n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		switch rng.Intn(8) {
		case 0:
			d[i] = float32(math.Copysign(0, float64(rng.Intn(2))-0.5))
		case 1:
			d[i] = math.Float32frombits(uint32(rng.Int31n(1<<23)) | uint32(rng.Intn(2))<<31)
		case 2:
			d[i] = float32(math.Inf(rng.Intn(2)*2 - 1))
		case 3:
			d[i] = float32(math.NaN())
		default:
			d[i] = float32(rng.NormFloat64())
		}
	}
	return d
}

// accGrad is a gradient with a sprinkle of −0 and subnormals, so the
// lossless codec hands −0 to a cleared (+0) sum.
func accGrad(rng *rand.Rand, n int) []float32 {
	g := make([]float32, n)
	for i := range g {
		switch rng.Intn(10) {
		case 0:
			g[i] = float32(math.Copysign(0, -1))
		case 1:
			g[i] = math.Float32frombits(uint32(rng.Int31n(1<<23)) | 1<<31)
		default:
			g[i] = float32(math.Sin(float64(i)*0.01) + 0.3*rng.NormFloat64())
		}
	}
	return g
}

// TestAccumulateMatchesDecompress: every codec × decorator, at a bucket's
// length (256 KiB) and at odd lengths, on a gradient and on an all-zero
// one (a header-only message for the transform codecs), for wt ∈ {1, 0.5,
// λ³} and scale ∈ {1, 1/3}, onto a cleared sum (+0, as worker.average
// starts) and onto a sum of special values.
func TestAccumulateMatchesDecompress(t *testing.T) {
	lambda3 := float32(math.Pow(0.9, 3))
	lengths := []int{1, 7, 1025, 5003, 65536}
	if testing.Short() {
		lengths = lengths[:4]
	}
	rng := rand.New(rand.NewSource(30))
	for _, n := range lengths {
		grads := map[string][]float32{"grad": accGrad(rng, n), "zero": make([]float32, n)}
		dsts := map[string][]float32{"cleared": make([]float32, n), "special": specialDst(rng, n)}
		for _, mk := range accCodecs() {
			for _, dec := range accDecorators {
				c := dec.wrap(mk())
				for gname, g := range grads {
					msg, err := c.AppendCompress(nil, g)
					if err != nil {
						t.Fatal(err)
					}
					for dname, d0 := range dsts {
						for _, wt := range []float32{1, 0.5, lambda3} {
							for _, scale := range []float32{1, 1.0 / 3} {
								what := fmt.Sprintf("%s n=%d %s dst=%s wt=%v scale=%v", c.Name(), n, gname, dname, wt, scale)
								got, want := append([]float32(nil), d0...), append([]float32(nil), d0...)
								if err := compress.AccumulateInto(c, got, msg, wt, scale); err != nil {
									t.Fatalf("%s: %v", what, err)
								}
								if err := accumulateRef(c, want, msg, wt, scale); err != nil {
									t.Fatalf("%s: reference: %v", what, err)
								}
								for i := range want {
									if !sameBits(got[i], want[i]) {
										t.Fatalf("%s element %d (dst %v): %v (%#x), reference %v (%#x)", what, i, d0[i],
											got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzAccumulateMatchesDecompress feeds arbitrary bytes to every codec,
// bare and CRC-framed: AccumulateInto must fail exactly when
// DecompressInto does, leave dst untouched when it fails, and otherwise
// match the dense decode and reference loop bit for bit.
func FuzzAccumulateMatchesDecompress(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 300} {
		g := accGrad(rng, n)
		for _, mk := range accCodecs() {
			for _, c := range []compress.Compressor{mk(), guard.NewFramed(mk(), true)} {
				msg, err := c.AppendCompress(nil, g)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(msg, uint16(n), uint32(0x3f000000), uint8(0))
			}
		}
	}
	f.Fuzz(func(t *testing.T, msg []byte, nRaw uint16, wtBits uint32, seed uint8) {
		n := int(nRaw) % 4098
		wt := math.Float32frombits(wtBits)
		d0 := specialDst(rand.New(rand.NewSource(int64(seed))), n)
		for _, mk := range accCodecs() {
			for _, c := range []compress.Compressor{mk(), guard.NewFramed(mk(), true)} {
				got, want := append([]float32(nil), d0...), append([]float32(nil), d0...)
				err := compress.AccumulateInto(c, got, msg, wt, 1.0/3)
				refErr := accumulateRef(c, want, msg, wt, 1.0/3)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("%s: accumulate error %v, decode error %v", c.Name(), err, refErr)
				}
				if err != nil {
					want = d0
				}
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s (error %v) element %d: %#x, want %#x", c.Name(), err, i,
							math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	})
}
