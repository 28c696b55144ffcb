package compress

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"fftgrad/internal/pack"
	"fftgrad/internal/scratch"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/telemetry"
)

// TopK is the vanilla spatial top-k sparsification baseline: keep the
// top-(1-θ) fraction of gradient entries by magnitude, ship them as FP32
// values plus a position bitmap. Compression ratio ≈ 1/(1-θ) on the value
// payload (the paper quotes 6.67x at θ=0.85), reduced by the 1-bit-per-
// element bitmap.
type TopK struct {
	theta atomicTheta
	st    *telemetry.StageTimer
}

// Instrument implements Instrumentable: subsequent (de)compressions
// report per-stage wall time to st. Call before first use. TopK has no
// transform or precision-conversion stage, so only Ts (selection) and
// Tp (packing) are observed.
func (t *TopK) Instrument(st *telemetry.StageTimer) { t.st = st }

// NewTopK creates a TopK compressor with drop ratio theta.
func NewTopK(theta float64) *TopK {
	t := &TopK{}
	t.theta.Store(theta)
	return t
}

// Name implements Compressor.
func (*TopK) Name() string { return "topk" }

// SetTheta implements ThetaSetter.
func (t *TopK) SetTheta(theta float64) { t.theta.Store(theta) }

// Theta returns the current drop ratio.
func (t *TopK) Theta() float64 { return t.theta.Load() }

// AppendCompress implements Compressor.
//
// Wire format: u32 n | u32 kept | bitmap (⌈n/64⌉·8 bytes) | kept·f32.
func (t *TopK) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	n := len(grad)
	words := pack.BitmapWords(n)
	maskb := scratch.Uint64s(words)
	defer scratch.PutUint64s(maskb)
	mask := *maskb
	// The mask path reads magnitudes without modifying grad, so no working
	// copy is needed; selected values are serialized straight from grad.
	t0 := time.Now()
	sparsify.TopKSpatialMask(mask, grad, t.theta.Load())
	kept := 0
	for _, w := range mask {
		kept += bits.OnesCount64(w)
	}
	t.st.ObserveSince(telemetry.StageSelect, 4*n, t0)

	t0 = time.Now()
	dst = putHeader(dst, uint32(n), uint32(kept))
	for _, w := range mask {
		dst = le.AppendUint64(dst, w)
	}
	for wi, w := range mask {
		base := wi << 6
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			dst = le.AppendUint32(dst, math.Float32bits(grad[base+bit]))
			w &= w - 1
		}
	}
	t.st.ObserveSince(telemetry.StagePack, 4*n, t0)
	return dst, nil
}

// DecompressInto implements Compressor.
func (t *TopK) DecompressInto(dst []float32, msg []byte) error {
	var hdr [2]uint32
	rest, err := readHeaderInto(hdr[:], msg)
	if err != nil {
		return err
	}
	n, kept := int(hdr[0]), int(hdr[1])
	if n != len(dst) {
		return fmt.Errorf("topk: message for %d elements, dst has %d", n, len(dst))
	}
	if kept > n {
		return fmt.Errorf("topk: kept %d exceeds %d elements", kept, n)
	}
	words := pack.BitmapWords(n)
	need := words*8 + kept*4
	if len(rest) < need {
		return fmt.Errorf("topk: message truncated: %d bytes after header, need %d", len(rest), need)
	}
	t0 := time.Now()
	bitmapb := scratch.Uint64s(words)
	defer scratch.PutUint64s(bitmapb)
	bitmap := *bitmapb
	pop := 0
	for i := range bitmap {
		bitmap[i] = le.Uint64(rest[8*i:])
		pop += bits.OnesCount64(bitmap[i])
	}
	if pop != kept {
		return fmt.Errorf("topk: bitmap popcount %d != kept %d", pop, kept)
	}
	if tail := uint(n & 63); tail != 0 && bitmap[words-1]>>tail != 0 {
		return fmt.Errorf("topk: bitmap marks elements past %d", n)
	}
	rest = rest[words*8:]
	valuesb := scratch.Float32s(kept)
	defer scratch.PutFloat32s(valuesb)
	values := *valuesb
	for i := range values {
		values[i] = math.Float32frombits(le.Uint32(rest[4*i:]))
	}
	pack.UnpackInto(dst, bitmap, values)
	t.st.ObserveSince(telemetry.StagePack, 4*n, t0)
	return nil
}

// atomicTheta stores a float64 with atomic load/store so schedules can
// update θ while workers compress concurrently.
type atomicTheta struct{ bits atomic.Uint64 }

func (a *atomicTheta) Store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicTheta) Load() float64   { return math.Float64frombits(a.bits.Load()) }
