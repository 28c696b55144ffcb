package compress

import (
	"fmt"
	"math"
	"sync"
	"time"

	"fftgrad/internal/cfft"
	"fftgrad/internal/f16"
	"fftgrad/internal/pack"
	"fftgrad/internal/quant"
	"fftgrad/internal/scratch"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/telemetry"
)

// FFT is the paper's compression framework (Fig. 3):
//
//	① linearize the gradient into a 1-D signal (callers pass the already
//	   flattened gradient; internal/nn produces it),
//	② optionally convert to half precision (the GPU pipeline runs the FFT
//	   in fp16 for 2x throughput; the conversion loss is negligible),
//	③ FFT and keep only the top-(1-θ) frequency bins by magnitude,
//	④ quantize the surviving complex coefficients with the range-based
//	   N-bit float (Alg. 1), re-tuned automatically when the coefficient
//	   range drifts,
//	⑤ pack the sparse bins into a dense message: bin bitmap + bit-packed
//	   codes.
//
// The receiver runs the inverse pipeline. Both directions reuse pooled
// scratch and per-compressor cached state (spectra, quantizers), so the
// steady state of AppendCompress + DecompressInto allocates nothing.
type FFT struct {
	// QuantBits is N of the range-based quantizer (default 10, as in the
	// paper's evaluation).
	QuantBits int
	// UseHalf applies an fp32→fp16→fp32 round trip before the transform,
	// mirroring the paper's half-precision FFT input.
	UseHalf bool

	theta atomicTheta
	sp    *sparsify.FFT
	qc    quantCache
	specs sync.Pool // *sparsify.Spectrum reused across AppendCompress calls
	st    *telemetry.StageTimer
}

// Instrument implements Instrumentable: subsequent (de)compressions
// report per-stage wall time to st. Call before first use.
func (c *FFT) Instrument(st *telemetry.StageTimer) { c.st = st }

// NewFFT creates the paper-default FFT compressor: drop ratio theta,
// 10-bit range quantization, fp16 pre-conversion enabled.
func NewFFT(theta float64) *FFT {
	c := &FFT{QuantBits: 10, UseHalf: true, sp: sparsify.NewFFT()}
	c.theta.Store(theta)
	return c
}

// Name implements Compressor.
func (*FFT) Name() string { return "fft" }

// SetTheta implements ThetaSetter.
func (c *FFT) SetTheta(theta float64) { c.theta.Store(theta) }

// Theta returns the current drop ratio.
func (c *FFT) Theta() float64 { return c.theta.Load() }

// fftHeaderWords is the number of u32 header words in the wire format.
const fftHeaderWords = 8

// AppendCompress implements Compressor.
//
// Wire format (all u32 unless noted):
//
//	L | paddedN | kept | quantBits | quantM | f32 eps | f32 qmin | f32 qmax
//	| bin bitmap (⌈bins/64⌉·8 bytes) | packed codes (2·kept · quantBits bits)
func (c *FFT) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	n := len(grad)
	workb := scratch.Float32s(n)
	defer scratch.PutFloat32s(workb)
	work := *workb
	t0 := time.Now()
	copy(work, grad)
	if c.UseHalf {
		f16.RoundTripSlice(work)
	}
	c.st.ObserveSince(telemetry.StageConvert, 4*n, t0)
	spec, _ := c.specs.Get().(*sparsify.Spectrum)
	if spec == nil {
		spec = new(sparsify.Spectrum)
	}
	defer c.specs.Put(spec)
	// The fused analyze+pack path builds the keep mask, zeroes dropped
	// bins, and gathers the surviving coefficients as interleaved
	// (re, im) float32 pairs in one cache-blocked sweep, so no separate
	// mask-directed gather pass over the spectrum runs here.
	theta := c.theta.Load()
	nbins := cfft.PaddedLen(n)/2 + 1
	kept := sparsify.KeepCount(nbins, theta)
	valsb := scratch.Float32s(2*kept + 1)
	defer scratch.PutFloat32s(valsb)
	nvals, absMax, err := c.sp.AnalyzePackedTimed(spec, *valsb, work, theta, c.st)
	if err != nil {
		return nil, err
	}
	if spec.Kept == 0 || absMax == 0 {
		// Nothing survives (θ=1) or all-zero gradient: header-only
		// message that decompresses to zeros.
		return putHeader(dst, uint32(n), uint32(spec.N), 0, 0, 0, 0, 0, 0), nil
	}
	vals := (*valsb)[:nvals]

	t0 = time.Now()
	q, err := c.qc.encoder(c.QuantBits, absMax, vals)
	if err != nil {
		return nil, err
	}
	codesb := scratch.Uint32s(len(vals))
	defer scratch.PutUint32s(codesb)
	codes := q.EncodeSlice(*codesb, vals)
	c.st.ObserveSince(telemetry.StageConvert, 4*n, t0)

	t0 = time.Now()
	dst = putHeader(dst,
		uint32(n), uint32(spec.N), uint32(spec.Kept),
		uint32(q.N), uint32(q.M),
		math.Float32bits(q.Eps), math.Float32bits(q.Min), math.Float32bits(q.Max))
	for _, w := range spec.Mask {
		dst = le.AppendUint64(dst, w)
	}
	dst = quant.AppendCodes(dst, codes, q.N)
	c.st.ObserveSince(telemetry.StagePack, 4*n, t0)
	return dst, nil
}

// DecompressInto implements Compressor: the inverse pipeline with
// pooled scratch and a cached decode-side quantizer.
func (c *FFT) DecompressInto(dst []float32, msg []byte) error {
	var hdr [fftHeaderWords]uint32
	rest, err := readHeaderInto(hdr[:], msg)
	if err != nil {
		return err
	}
	n, paddedN, kept := int(hdr[0]), int(hdr[1]), int(hdr[2])
	if n != len(dst) {
		return fmt.Errorf("fft: message for %d elements, dst has %d", n, len(dst))
	}
	// The padded length is a pure function of n; reject anything else so a
	// corrupt header cannot drive allocations.
	if want := cfft.PaddedLen(n); paddedN != want {
		return fmt.Errorf("fft: padded length %d, want %d for %d elements", paddedN, want, n)
	}
	if kept == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	nbins := paddedN/2 + 1
	if kept > nbins {
		return fmt.Errorf("fft: kept %d exceeds %d bins", kept, nbins)
	}
	q, err := c.qc.decoder(hdr[:])
	if err != nil {
		return fmt.Errorf("fft: rebuilding quantizer: %w", err)
	}

	t0 := time.Now()
	words := pack.BitmapWords(nbins)
	if len(rest) < words*8 {
		return fmt.Errorf("fft: message truncated in bitmap")
	}
	maskb := scratch.Uint64s(words)
	defer scratch.PutUint64s(maskb)
	mask := *maskb
	for i := range mask {
		mask[i] = le.Uint64(rest[8*i:])
	}
	rest = rest[words*8:]
	c.st.ObserveSince(telemetry.StagePack, 4*n, t0)

	t0 = time.Now()
	codesb := scratch.Uint32s(2 * kept)
	defer scratch.PutUint32s(codesb)
	codes := *codesb
	if err := quant.UnpackCodesInto(codes, rest, q.N); err != nil {
		return err
	}
	valsb := scratch.Float32s(2 * kept)
	defer scratch.PutFloat32s(valsb)
	vals := q.DecodeSlice(*valsb, codes)
	c.st.ObserveSince(telemetry.StageConvert, 4*n, t0)

	t0 = time.Now()
	binsb := scratch.Complex128s(nbins)
	defer scratch.PutComplex128s(binsb)
	bins := *binsb
	vi := 0
	for i := 0; i < nbins; i++ {
		if mask[i>>6]&(1<<(uint(i)&63)) != 0 {
			if vi+1 >= len(vals) { // defensive: popcount > kept
				return fmt.Errorf("fft: bitmap popcount exceeds kept=%d", kept)
			}
			bins[i] = complex(float64(vals[vi]), float64(vals[vi+1]))
			vi += 2
		} else {
			bins[i] = 0
		}
	}
	if vi != 2*kept {
		return fmt.Errorf("fft: bitmap popcount %d != kept %d", vi/2, kept)
	}
	c.st.ObserveSince(telemetry.StagePack, 4*n, t0)
	return c.sp.SynthesizeIntoTimed(dst, n, paddedN, bins, c.st)
}

// ReconstructionError compresses and decompresses grad, returning the
// relative L2 error ‖g−ĝ‖/‖g‖ — the α of Assumption 3.2 for a single
// worker. Useful for calibration and the Fig. 12 experiment.
func ReconstructionError(c Compressor, grad []float32) (float64, error) {
	msg, err := c.AppendCompress(nil, grad)
	if err != nil {
		return 0, err
	}
	rec := make([]float32, len(grad))
	if err := c.DecompressInto(rec, msg); err != nil {
		return 0, err
	}
	var num, den float64
	for i := range grad {
		d := float64(grad[i] - rec[i])
		num += d * d
		den += float64(grad[i]) * float64(grad[i])
	}
	if den == 0 {
		return 0, nil
	}
	return math.Sqrt(num / den), nil
}
