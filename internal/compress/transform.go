package compress

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"fftgrad/internal/cfft"
	"fftgrad/internal/pack"
	"fftgrad/internal/quant"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/telemetry"
)

// Transform is the paper's compression framework (Fig. 3), written once
// over the transform it sparsifies in:
//
//	① linearize the gradient into a 1-D signal (callers pass the already
//	   flattened gradient; internal/nn produces it),
//	② optionally convert to half precision (the GPU pipeline runs the FFT
//	   in fp16 for 2x throughput; the conversion loss is negligible),
//	③ transform and keep only the top-(1-θ) bins by magnitude,
//	④ quantize the surviving coefficients with the range-based N-bit
//	   float (Alg. 1), re-tuned automatically when the coefficient range
//	   drifts,
//	⑤ pack the sparse bins into a dense message: bin bitmap + bit-packed
//	   codes.
//
// The receiver runs the inverse pipeline. A call works in a codecWork
// (the spectrum and its work array, the decode-side quantizer), sized at
// its first use and kept for the codec's life, and the sender reuses its
// cached tuning, so the steady state of AppendCompress + DecompressInto
// allocates nothing, a re-tune included. A new codec has one codecWork
// serving both directions; ShareWork gives a set of codecs one encode and
// one decode workspace between them. Calls that work in one codecWork
// serialize on its lock; the training paths give every rank and bucket a
// codec of its own, and a bucketed rank's codecs share its two workspaces,
// which its compress and average stages use one each.
//
// NewFFT builds the paper's codec, NewDCT its real-transform ablation.
// Ablation finding (tested in transform_test.go): at equal θ the value
// payload matches the FFT's exactly — the DCT has n real bins where the
// FFT has n/2 complex ones, so keeping the top (1-θ) fraction keeps the
// same number of real values — but the DCT's bitmap covers twice as many
// bins, so its wire ratio is slightly LOWER (≈12.8x vs 16x at
// θ=0.85/10-bit). Its advantage is energy compaction on non-periodic
// signals (no wrap-around discontinuity), i.e. equal-or-lower
// reconstruction error, not ratio.
type Transform struct {
	// QuantBits is N of the range-based quantizer (default 10, as in the
	// paper's evaluation).
	QuantBits int
	// UseHalf applies an fp32→fp16→fp32 round trip before the transform,
	// mirroring the paper's half-precision FFT input.
	UseHalf bool

	name  string
	tr    *sparsify.Transform
	theta atomicTheta
	qc    quantCache // the encoder's, used under enc's lock
	// enc and dec are the workspaces AppendCompress and the decodes work
	// in: one codecWork for both, unless ShareWork split them.
	enc, dec *codecWork
	st       *telemetry.StageTimer
}

// FFT is the transform codec under the name its callers have always used.
type FFT = Transform

func newTransform(name string, tr *sparsify.Transform, theta float64) *Transform {
	w := new(codecWork)
	c := &Transform{QuantBits: 10, UseHalf: true, name: name, tr: tr, enc: w, dec: w}
	c.theta.Store(theta)
	return c
}

// NewFFT creates the paper-default FFT compressor: drop ratio theta,
// 10-bit range quantization, fp16 pre-conversion enabled.
func NewFFT(theta float64) *Transform { return newTransform("fft", sparsify.FFT, theta) }

// NewDCT creates the same pipeline through the type-II DCT, with NewFFT's
// defaults.
func NewDCT(theta float64) *Transform { return newTransform("dct", sparsify.DCT, theta) }

// Name implements Compressor: "fft" or "dct".
func (c *Transform) Name() string { return c.name }

// SetTheta implements ThetaSetter.
func (c *Transform) SetTheta(theta float64) { c.theta.Store(theta) }

// Theta returns the current drop ratio.
func (c *Transform) Theta() float64 { return c.theta.Load() }

// Instrument implements Instrumentable: subsequent (de)compressions
// report per-stage wall time to st. Call before first use.
func (c *Transform) Instrument(st *telemetry.StageTimer) { c.st = st }

// codecWork is the state a call works in: the spectrum either direction
// uses (its bins and real work array are the model-size buffers) and,
// decoding, the quantizer rebuilt from the message's header. Every call
// holds its lock throughout.
type codecWork struct {
	mu   sync.Mutex
	spec sparsify.Spectrum
	dec  quant.Decoder
}

// ShareWork gives the transform codecs among cs — found through any
// wrappers with As — one encode and one decode workspace between them, in
// place of one workspace each. A caller that runs at most one compress
// and one decode at a time over the set, as a bucketed rank's pipeline
// does, keeps two workspaces' worth of transform state however many
// codecs it has. A lone codec is left as it is: its one workspace serves
// both directions. Call it before the codecs' first use.
func ShareWork(cs []Compressor) {
	if len(cs) < 2 {
		return
	}
	enc, dec := new(codecWork), new(codecWork)
	for _, c := range cs {
		if t, ok := As[*Transform](c); ok {
			t.enc, t.dec = enc, dec
		}
	}
}

// transformHeaderWords is the number of u32 header words in the wire format.
const transformHeaderWords = 8

// AppendCompress implements Compressor. A gradient of any length is
// accepted: lengths 0 and 1 pad to a 2-point transform like every other.
//
// Wire format (all u32 unless noted), W = 2 values per bin for the FFT's
// N/2+1 complex bins, 1 for the DCT's N real ones:
//
//	L | paddedN | kept | quantBits | quantM | f32 eps | f32 qmin | f32 qmax
//	| bin bitmap (⌈bins/64⌉·8 bytes) | packed codes (W·kept · quantBits bits)
func (c *Transform) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	n := len(grad)
	// One pass rounds (UseHalf) and widens the gradient into the
	// transform's work array; after the transform one cache-blocked sweep
	// builds the keep mask and gathers the surviving coefficients as
	// float32 in bin order.
	c.enc.mu.Lock()
	defer c.enc.mu.Unlock()
	spec := &c.enc.spec
	if c.UseHalf {
		c.tr.AnalyzeHalf(spec, grad, c.theta.Load(), c.st)
	} else {
		c.tr.Analyze(spec, grad, c.theta.Load(), c.st)
	}
	if spec.Kept == 0 || spec.AbsMax == 0 {
		// Nothing survives (θ=1) or all-zero gradient: header-only
		// message that decompresses to zeros.
		return putHeader(dst, uint32(n), uint32(spec.N), 0, 0, 0, 0, 0, 0), nil
	}

	t0 := time.Now()
	q, err := c.qc.encoder(c.QuantBits, spec.AbsMax, spec.Vals)
	if err != nil {
		return nil, err
	}
	c.st.ObserveSince(telemetry.StageConvert, 4*n, t0)

	// Header, mask, then the codes, quantized and packed in one pass
	// straight into the message.
	t0 = time.Now()
	dst = putHeader(dst,
		uint32(n), uint32(spec.N), uint32(spec.Kept),
		uint32(q.N), uint32(q.M),
		math.Float32bits(q.Eps), math.Float32bits(q.Min), math.Float32bits(q.Max))
	for _, w := range spec.Mask {
		dst = le.AppendUint64(dst, w)
	}
	dst = q.AppendEncoded(dst, spec.Vals)
	c.st.ObserveSince(telemetry.StagePack, 4*n, t0)
	return dst, nil
}

// DecompressInto implements Compressor: the inverse pipeline in the
// codec's decode workspace, with the quantizer the header describes.
func (c *Transform) DecompressInto(dst []float32, msg []byte) error {
	return c.decode(dst, msg, nil)
}

// AccumulateInto implements Accumulator: the same pipeline, with the
// inverse's narrowing pass folding the signal into dst
// (sparsify.Transform.SynthesizeAccumulate).
func (c *Transform) AccumulateInto(dst []float32, msg []byte, wt, scale float32) error {
	return c.decode(dst, msg, &fold{wt, scale})
}

// decode writes the message's reconstruction into dst, or folds it in
// when f is set. Every check runs before dst is written.
func (c *Transform) decode(dst []float32, msg []byte, f *fold) error {
	var hdr [transformHeaderWords]uint32
	rest, err := readHeaderInto(hdr[:], msg)
	if err != nil {
		return err
	}
	n, paddedN, kept := int(hdr[0]), int(hdr[1]), int(hdr[2])
	if n != len(dst) {
		return fmt.Errorf("%s: message for %d elements, dst has %d", c.name, n, len(dst))
	}
	// The padded length is a pure function of n; reject anything else so a
	// corrupt header cannot drive allocations.
	if want := cfft.PaddedLen(n); paddedN != want {
		return fmt.Errorf("%s: padded length %d, want %d for %d elements", c.name, paddedN, want, n)
	}
	if kept == 0 {
		// A header-only message decodes to +0 everywhere.
		if f == nil {
			clear(dst)
		} else {
			z := f.wt * 0
			for i := range dst {
				dst[i] = (dst[i] + z) * f.scale
			}
		}
		return nil
	}
	nbins := c.tr.Bins(paddedN)
	if kept > nbins {
		return fmt.Errorf("%s: kept %d exceeds %d bins", c.name, kept, nbins)
	}
	w := c.dec
	w.mu.Lock()
	defer w.mu.Unlock()
	q := &w.dec
	if err := q.Reset(int(hdr[3]), int(hdr[4]),
		math.Float32frombits(hdr[5]), math.Float32frombits(hdr[6]), math.Float32frombits(hdr[7])); err != nil {
		return fmt.Errorf("%s: rebuilding quantizer: %w", c.name, err)
	}

	t0 := time.Now()
	spec := &w.spec
	spec.L, spec.N, spec.Kept = n, paddedN, kept
	words := pack.BitmapWords(nbins)
	if len(rest) < words*8 {
		return fmt.Errorf("%s: message truncated in bitmap", c.name)
	}
	spec.Mask = slices.Grow(spec.Mask[:0], words)[:words]
	for i := range spec.Mask {
		spec.Mask[i] = le.Uint64(rest[8*i:])
	}
	rest = rest[words*8:]
	c.st.ObserveSince(telemetry.StagePack, 4*n, t0)

	t0 = time.Now()
	nvals := c.tr.Width * kept
	spec.Vals = slices.Grow(spec.Vals[:0], nvals)[:nvals]
	if err := q.DecodePacked(spec.Vals, rest); err != nil {
		return err
	}
	c.st.ObserveSince(telemetry.StageConvert, 4*n, t0)
	// Scatter by bitmap (popcount must equal kept), inverse, narrow.
	if f != nil {
		return c.tr.SynthesizeAccumulate(dst, spec, f.wt, f.scale, c.st)
	}
	return c.tr.Synthesize(dst, spec, c.st)
}
