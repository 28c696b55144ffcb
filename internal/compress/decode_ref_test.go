package compress

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"fftgrad/internal/cfft"
	"fftgrad/internal/pack"
	"fftgrad/internal/quant"
)

// referenceDecompress is the transform codec's decode as it was before the
// passes were fused, kept as the oracle of FuzzDecodeMatchesReference:
// header checks, a fresh quantizer, the bitmap, quant.UnpackCodesInto into
// a []uint32, DecodeSlice, a branch per bin to scatter, the inverse
// transform into a float64 signal, and a narrowing pass.
func referenceDecompress(c *Transform, dst []float32, msg []byte) error {
	var hdr [transformHeaderWords]uint32
	rest, err := readHeaderInto(hdr[:], msg)
	if err != nil {
		return err
	}
	n, paddedN, kept := int(hdr[0]), int(hdr[1]), int(hdr[2])
	if n != len(dst) {
		return fmt.Errorf("message for %d elements, dst has %d", n, len(dst))
	}
	if want := cfft.PaddedLen(n); paddedN != want {
		return fmt.Errorf("padded length %d, want %d", paddedN, want)
	}
	if kept == 0 {
		clear(dst)
		return nil
	}
	nbins := c.tr.Bins(paddedN)
	if kept > nbins {
		return fmt.Errorf("kept %d exceeds %d bins", kept, nbins)
	}
	q, err := quant.NewRangeQuantizer(int(hdr[3]), int(hdr[4]),
		math.Float32frombits(hdr[5]), math.Float32frombits(hdr[6]), math.Float32frombits(hdr[7]))
	if err != nil {
		return err
	}
	words := pack.BitmapWords(nbins)
	if len(rest) < words*8 {
		return fmt.Errorf("truncated in bitmap")
	}
	mask := make([]uint64, words)
	for i := range mask {
		mask[i] = le.Uint64(rest[8*i:])
	}
	rest = rest[words*8:]
	codes := make([]uint32, c.tr.Width*kept)
	if err := quant.UnpackCodesInto(codes, rest, q.N); err != nil {
		return err
	}
	vals := q.DecodeSlice(make([]float32, len(codes)), codes)

	if tail := uint(nbins & 63); tail != 0 {
		mask[words-1] &= 1<<tail - 1
	}
	pop := 0
	for _, w := range mask {
		pop += bits.OnesCount64(w)
	}
	if pop != kept {
		return fmt.Errorf("bitmap popcount %d != kept %d", pop, kept)
	}
	sig := make([]float64, paddedN)
	vi := 0
	if c.tr.Width == 2 {
		bins := make([]complex128, nbins)
		for i := range bins {
			if mask[i>>6]&(1<<(uint(i)&63)) != 0 {
				bins[i] = complex(float64(vals[vi]), float64(vals[vi+1]))
				vi += 2
			}
		}
		cfft.RealPlanFor(paddedN).Inverse(sig, bins)
	} else {
		bins := make([]float64, nbins)
		for i := range bins {
			if mask[i>>6]&(1<<(uint(i)&63)) != 0 {
				bins[i] = float64(vals[vi])
				vi++
			}
		}
		sig = make([]float64, 2*paddedN) // the DCT's work array; the signal is its first half
		cfft.DCTPlanFor(paddedN).Inverse(sig, bins, make([]complex128, paddedN+1))
	}
	for i := range dst {
		dst[i] = float32(sig[i])
	}
	return nil
}

// FuzzDecodeMatchesReference is the differential check on the fused
// decode: on arbitrary bytes DecompressInto fails exactly when the unfused
// reference does, and otherwise produces the same floats — through the
// value table (N <= 12) and through the arithmetic branch (N > 12), for
// the FFT and the DCT. The corpus starts from the golden-vector messages.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, name := range []string{"fft", "dct"} {
		for _, bits := range []int{2, 10, 12, 13, 24} {
			for _, n := range []int{0, 1, 2, 100, 1000} {
				for _, sig := range []string{"smooth", "periodic"} {
					msg, err := goldenCodec(name, 0.85, true, bits).AppendCompress(nil, goldenSignal(sig, n))
					if err != nil {
						f.Fatal(err)
					}
					f.Add(msg)
				}
			}
		}
	}
	f.Add([]byte{})
	codecs := []*Transform{NewFFT(0.85), NewDCT(0.85)}
	f.Fuzz(func(t *testing.T, msg []byte) {
		n := 100
		if len(msg) >= 4 {
			// The header's own length when it is small enough to allocate:
			// any other is rejected on the first check by both decoders.
			if l := int(le.Uint32(msg)); l <= 1<<16 {
				n = l
			}
		}
		got, want := make([]float32, n), make([]float32, n)
		for _, c := range codecs {
			for i := range got {
				got[i], want[i] = -1, -1
			}
			errGot := c.DecompressInto(got, msg)
			errWant := referenceDecompress(c, want, msg)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("%s: DecompressInto error %v, reference error %v", c.Name(), errGot, errWant)
			}
			if errGot != nil {
				for i, v := range got {
					if v != -1 {
						t.Fatalf("%s: rejected message (%v) wrote dst[%d]", c.Name(), errGot, i)
					}
				}
				continue
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
					t.Fatalf("%s: dst[%d] = %g (%#x), reference %g (%#x)", c.Name(), i,
						got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	})
}
