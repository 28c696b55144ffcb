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

// DCT is the real-transform ablation of the FFT compressor: identical
// pipeline (optional fp16 pre-conversion, transform, top-k in the
// transform domain, range-based N-bit quantization, bitmap packing), but
// through the type-II DCT.
//
// Ablation finding (tested in dctc_test.go): at equal θ the value payload
// matches the FFT exactly — the DCT has n real bins where the FFT has n/2
// complex ones, so keeping the top (1-θ) fraction keeps the same number
// of real values — but the DCT's bitmap covers twice as many bins, so its
// wire ratio is slightly LOWER (≈12.8x vs 16x at θ=0.85/10-bit). Its
// advantage is energy compaction on non-periodic signals (no wrap-around
// discontinuity), i.e. equal-or-lower reconstruction error, not ratio.
type DCT struct {
	// QuantBits is N of the range-based quantizer (default 10).
	QuantBits int
	// UseHalf applies an fp32→fp16→fp32 round trip before the transform.
	UseHalf bool

	theta atomicTheta
	sp    *sparsify.DCT
	qc    quantCache
	specs sync.Pool // *sparsify.RealSpectrum reused across AppendCompress calls
	st    *telemetry.StageTimer
}

// Instrument implements Instrumentable: subsequent (de)compressions
// report per-stage wall time to st. Call before first use.
func (c *DCT) Instrument(st *telemetry.StageTimer) { c.st = st }

// NewDCT creates a DCT compressor with drop ratio theta, 10-bit range
// quantization and fp16 pre-conversion, mirroring NewFFT's defaults.
func NewDCT(theta float64) *DCT {
	c := &DCT{QuantBits: 10, UseHalf: true, sp: sparsify.NewDCT()}
	c.theta.Store(theta)
	return c
}

// Name implements Compressor.
func (*DCT) Name() string { return "dct" }

// SetTheta implements ThetaSetter.
func (c *DCT) SetTheta(theta float64) { c.theta.Store(theta) }

// Theta returns the current drop ratio.
func (c *DCT) Theta() float64 { return c.theta.Load() }

// AppendCompress implements Compressor.
//
// Wire format (u32 unless noted):
//
//	L | paddedN | kept | quantBits | quantM | f32 eps | f32 qmin | f32 qmax
//	| bin bitmap (⌈N/64⌉·8 bytes) | packed codes (kept · quantBits bits)
func (c *DCT) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
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
	spec, _ := c.specs.Get().(*sparsify.RealSpectrum)
	if spec == nil {
		spec = new(sparsify.RealSpectrum)
	}
	defer c.specs.Put(spec)
	if err := c.sp.AnalyzeIntoTimed(spec, work, c.theta.Load(), c.st); err != nil {
		return nil, err
	}
	if spec.Kept == 0 {
		return putHeader(dst, uint32(n), uint32(spec.N), 0, 0, 0, 0, 0, 0), nil
	}

	t0 = time.Now()
	valsb := scratch.Float32s(spec.Kept)
	defer scratch.PutFloat32s(valsb)
	vals := (*valsb)[:0]
	var absMax float64
	for i, b := range spec.Bins {
		if spec.Mask[i>>6]&(1<<(uint(i)&63)) == 0 {
			continue
		}
		v := float32(b)
		vals = append(vals, v)
		if a := math.Abs(float64(v)); a > absMax {
			absMax = a
		}
	}
	if absMax == 0 {
		return putHeader(dst, uint32(n), uint32(spec.N), 0, 0, 0, 0, 0, 0), nil
	}
	c.st.ObserveSince(telemetry.StagePack, 4*n, t0)

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

// DecompressInto implements Compressor.
func (c *DCT) DecompressInto(dst []float32, msg []byte) error {
	var hdr [fftHeaderWords]uint32
	rest, err := readHeaderInto(hdr[:], msg)
	if err != nil {
		return err
	}
	n, paddedN, kept := int(hdr[0]), int(hdr[1]), int(hdr[2])
	if n != len(dst) {
		return fmt.Errorf("dct: message for %d elements, dst has %d", n, len(dst))
	}
	if want := cfft.PaddedLen(n); paddedN != want {
		return fmt.Errorf("dct: padded length %d, want %d for %d elements", paddedN, want, n)
	}
	if kept == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	if kept > paddedN {
		return fmt.Errorf("dct: kept %d exceeds %d bins", kept, paddedN)
	}
	q, err := c.qc.decoder(hdr[:])
	if err != nil {
		return fmt.Errorf("dct: rebuilding quantizer: %w", err)
	}

	t0 := time.Now()
	words := pack.BitmapWords(paddedN)
	if len(rest) < words*8 {
		return fmt.Errorf("dct: message truncated in bitmap")
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
	codesb := scratch.Uint32s(kept)
	defer scratch.PutUint32s(codesb)
	codes := *codesb
	if err := quant.UnpackCodesInto(codes, rest, q.N); err != nil {
		return err
	}
	valsb := scratch.Float32s(kept)
	defer scratch.PutFloat32s(valsb)
	vals := q.DecodeSlice(*valsb, codes)
	c.st.ObserveSince(telemetry.StageConvert, 4*n, t0)

	t0 = time.Now()
	binsb := scratch.Float64s(paddedN)
	defer scratch.PutFloat64s(binsb)
	bins := *binsb
	vi := 0
	for i := 0; i < paddedN; i++ {
		if mask[i>>6]&(1<<(uint(i)&63)) != 0 {
			if vi >= len(vals) {
				return fmt.Errorf("dct: bitmap popcount exceeds kept=%d", kept)
			}
			bins[i] = float64(vals[vi])
			vi++
		} else {
			bins[i] = 0
		}
	}
	if vi != kept {
		return fmt.Errorf("dct: bitmap popcount %d != kept %d", vi, kept)
	}
	c.st.ObserveSince(telemetry.StagePack, 4*n, t0)
	return c.sp.SynthesizeIntoTimed(dst, n, paddedN, bins, c.st)
}
