// Package compress implements the gradient compression framework of the
// paper (Fig. 3) and the three lossy baselines it is evaluated against.
//
// A Compressor turns a float32 gradient into a self-contained wire message
// and back. The five implementations are:
//
//   - FP32      — no compression (the lossless SGD baseline)
//   - TopK      — spatial top-k sparsification (Aji & Heafield 2017)
//   - QSGD      — stochastic uniform quantization (Alistarh et al. 2017)
//   - TernGrad  — ternary quantization (Wen et al. 2017)
//   - Transform — the paper's method: fp16 pre-conversion, FFT, top-k in
//     the frequency domain, range-based N-bit quantization of
//     the surviving coefficients, bitmap packing (NewFFT); the
//     same pipeline through the DCT is its ablation (NewDCT).
//
// All message formats are little-endian and carry whatever per-message
// parameters the receiver needs (norms, scales, quantizer settings), so a
// message can be decompressed by any peer.
package compress

import (
	"encoding/binary"
	"fmt"

	"fftgrad/internal/parallel"
	"fftgrad/internal/scratch"
	"fftgrad/internal/telemetry"
)

// Compressor encodes gradients for transmission and decodes them back.
// Implementations are safe for concurrent use unless noted.
//
// AppendCompress appends the wire message for grad to dst and returns
// the extended slice, exactly as the append built-in: dst may be nil
// (a fresh message is c.AppendCompress(nil, grad)), and callers reusing
// one buffer across iterations (dst = msg[:0]) pay no allocation once
// its capacity has grown to the steady-state message size. The returned
// slice may alias dst's array (and does whenever capacity sufficed); the
// caller owns it and must not assume dst is still valid independently.
// grad is never modified and never aliased by the result.
//
// DecompressInto reconstructs a gradient into dst from a message
// produced by the same algorithm. len(dst) must equal the original
// gradient length; dst is fully overwritten. msg is read-only and may
// alias network buffers. After a warm-up call per gradient size the
// round trip performs zero heap allocations (TestZeroAllocRoundTrip).
type Compressor interface {
	// Name identifies the algorithm ("fp32", "topk", "qsgd", "terngrad",
	// "fft", "dct") in experiment reports.
	Name() string
	AppendCompress(dst []byte, grad []float32) ([]byte, error)
	DecompressInto(dst []float32, msg []byte) error
}

// ThetaSetter is implemented by sparsifying compressors whose drop ratio
// can be changed between iterations (for the diminishing-θ schedules of
// Theorem 3.5).
type ThetaSetter interface {
	SetTheta(theta float64)
}

// Instrumentable is implemented by compressors that can report per-stage
// wall time (the live Sec. 3.3 cost terms Tm/Tf/Tp/Ts) to a telemetry
// StageTimer. Instrument must be called before the compressor is used;
// the timer may be shared by many compressors (its updates are atomic)
// and a nil timer disables instrumentation. Timing adds no steady-state
// heap allocations — the 0 allocs/op round-trip gate holds with a timer
// attached (asserted by TestZeroAllocRoundTrip).
type Instrumentable interface {
	Instrument(st *telemetry.StageTimer)
}

// As finds an optional capability T (ThetaSetter, Instrumentable, a
// residual sink, ...) in a decorated compressor, the way errors.As finds
// an error type in a wrapped chain: it returns c itself when c
// implements T, otherwise the first layer that does along the chain of
// Inner() methods. Decorators (guard.Framed, the feedback wrappers)
// therefore expose Inner and implement only the capabilities that are
// their own. A capability that reads the wire (Accumulator) must not be
// found this way: see AccumulateInto.
func As[T any](c Compressor) (T, bool) {
	for c != nil {
		if t, ok := c.(T); ok {
			return t, true
		}
		w, ok := c.(interface{ Inner() Compressor })
		if !ok {
			break
		}
		c = w.Inner()
	}
	var zero T
	return zero, false
}

// Instrument attaches st to the layer of c that supports per-stage
// timing, and is a no-op when none does.
func Instrument(c Compressor, st *telemetry.StageTimer) {
	if i, ok := As[Instrumentable](c); ok {
		i.Instrument(st)
	}
}

// Accumulator is implemented by codecs that fold a message straight into
// a running sum instead of writing a dense reconstruction first.
// AccumulateInto sets dst[i] = (dst[i] + wt·x[i])·scale, where x is what
// DecompressInto would write, in exactly those float32 operations and that
// order: the add runs even onto a +0 and for a message that decodes to all
// zeros, and the multiply by scale runs even when scale is 1. A message
// that DecompressInto rejects is rejected before dst is written.
type Accumulator interface {
	AccumulateInto(dst []float32, msg []byte, wt, scale float32) error
}

// AccumulateInto folds msg into dst through c: c's own AccumulateInto
// when the outermost layer has one, otherwise DecompressInto into pooled
// scratch followed by Accumulate. The capability is asserted on c itself,
// never found with As: As walks past a decorator that lacks it, and below
// guard.Framed the inner decoder would read a frame whose CRC nobody
// checked. Decorators that implement it forward to this function on their
// inner codec after doing their own part.
func AccumulateInto(c Compressor, dst []float32, msg []byte, wt, scale float32) error {
	if a, ok := c.(Accumulator); ok {
		return a.AccumulateInto(dst, msg, wt, scale)
	}
	xb := scratch.Float32s(len(dst))
	defer scratch.PutFloat32s(xb)
	if err := c.DecompressInto(*xb, msg); err != nil {
		return err
	}
	Accumulate(dst, *xb, wt, scale)
	return nil
}

// Accumulate is the dense accumulation: dst[i] = (dst[i] + wt·x[i])·scale
// over equal-length slices, in parallel, through the fold kernel.
func Accumulate(dst, x []float32, wt, scale float32) {
	parallel.For3(len(dst), dst, x, fold{wt, scale}, active.fold)
}

// AppendCompress is c.AppendCompress(dst, grad), kept as a function for
// the benchmark module.
func AppendCompress(c Compressor, dst []byte, grad []float32) ([]byte, error) {
	return c.AppendCompress(dst, grad)
}

// DecompressInto is c.DecompressInto(dst, msg), kept as a function for
// the benchmark module.
func DecompressInto(c Compressor, dst []float32, msg []byte) error {
	return c.DecompressInto(dst, msg)
}

// Ratio returns the compression ratio achieved by a message for a gradient
// of n float32 values: original bytes / message bytes.
func Ratio(n int, msg []byte) float64 {
	if len(msg) == 0 {
		return 0
	}
	return float64(n*4) / float64(len(msg))
}

// le is the byte order used by every wire format in this package.
var le = binary.LittleEndian

// putHeader appends vals as uint32 little-endian words.
func putHeader(buf []byte, vals ...uint32) []byte {
	for _, v := range vals {
		buf = le.AppendUint32(buf, v)
	}
	return buf
}

// readHeaderInto reads len(dst) uint32 words into dst, returning the rest
// of the buffer. Decoders pass a stack array so header parsing is
// allocation-free.
func readHeaderInto(dst []uint32, msg []byte) ([]byte, error) {
	need := 4 * len(dst)
	if len(msg) < need {
		return nil, fmt.Errorf("compress: message truncated: %d bytes, need %d header bytes", len(msg), need)
	}
	for i := range dst {
		dst[i] = le.Uint32(msg[4*i:])
	}
	return msg[need:], nil
}

// splitmix64 is a tiny stateless hash used to derive per-element uniform
// randoms for the stochastic quantizers, so encoding is deterministic for
// a given (seed, index) and safe to parallelize.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// uniform01 maps (seed, index) to a uniform float64 in [0, 1).
func uniform01(seed uint64, i int) float64 {
	return float64(splitmix64(seed^uint64(i)*0xA24BAED4963EE407)>>11) / float64(1<<53)
}
