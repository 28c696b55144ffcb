package compress

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"fftgrad/internal/parallel"
	"fftgrad/internal/quant"
	"fftgrad/internal/scratch"
	"fftgrad/internal/telemetry"
)

// TernGrad implements the ternary quantizer of Wen et al. (NeurIPS 2017)
// without gradient clipping ("TernGrad-noclip" in the paper's tables):
//
//	v_i  →  s_t · sgn(v_i) · b_i,   s_t = max|v|,  b_i ~ Bernoulli(|v_i|/s_t)
//
// Each coordinate needs 2 bits ({-1, 0, +1}), giving a 16x ratio.
type TernGrad struct {
	seed atomic.Uint64
	st   *telemetry.StageTimer
}

// Instrument implements Instrumentable: subsequent (de)compressions
// report per-stage wall time to st. Like QSGD, the scale + ternarize
// pass is Tm and the 2-bit code packing is Tp.
func (t *TernGrad) Instrument(st *telemetry.StageTimer) { t.st = st }

// NewTernGrad creates a TernGrad compressor.
func NewTernGrad() *TernGrad {
	t := &TernGrad{}
	t.seed.Store(0xBB67AE8584CAA73B)
	return t
}

// Name implements Compressor.
func (*TernGrad) Name() string { return "terngrad" }

// ternEnc carries the per-message encoding parameters through For3 by
// value, keeping the loop body capture-free (see parallel.For2).
type ternEnc struct {
	seed  uint64
	scale float64
}

// AppendCompress implements Compressor.
//
// Wire format: u32 n | f32 scale | packed 2-bit codes (0→0, 1→+1, 2→-1).
func (t *TernGrad) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	n := len(grad)
	t0 := time.Now()
	var scale float64
	for _, v := range grad {
		if a := math.Abs(float64(v)); a > scale {
			scale = a
		}
	}
	seed := t.seed.Add(0x9E3779B97F4A7C15)
	codesb := scratch.Uint32s(n)
	defer scratch.PutUint32s(codesb)
	codes := *codesb
	if scale > 0 {
		parallel.For3(n, codes, grad, ternEnc{seed: seed, scale: scale},
			func(codes []uint32, grad []float32, e ternEnc, lo, hi int) {
				for i := lo; i < hi; i++ {
					v := float64(grad[i])
					p := math.Abs(v) / e.scale
					switch {
					case uniform01(e.seed, i) >= p:
						codes[i] = 0
					case v >= 0:
						codes[i] = 1
					default:
						codes[i] = 2
					}
				}
			})
	} else {
		for i := range codes {
			codes[i] = 0
		}
	}
	t.st.ObserveSince(telemetry.StageConvert, 4*n, t0)
	t0 = time.Now()
	dst = putHeader(dst, uint32(n), math.Float32bits(float32(scale)))
	dst = quant.AppendCodes(dst, codes, 2)
	t.st.ObserveSince(telemetry.StagePack, 4*n, t0)
	return dst, nil
}

// DecompressInto implements Compressor.
func (t *TernGrad) DecompressInto(dst []float32, msg []byte) error {
	var hdr [2]uint32
	rest, err := readHeaderInto(hdr[:], msg)
	if err != nil {
		return err
	}
	n := int(hdr[0])
	scale := math.Float32frombits(hdr[1])
	if n != len(dst) {
		return fmt.Errorf("terngrad: message for %d elements, dst has %d", n, len(dst))
	}
	t0 := time.Now()
	codesb := scratch.Uint32s(n)
	defer scratch.PutUint32s(codesb)
	codes := *codesb
	if err := quant.UnpackCodesInto(codes, rest, 2); err != nil {
		return err
	}
	t.st.ObserveSince(telemetry.StagePack, 4*n, t0)
	t0 = time.Now()
	parallel.For3(n, dst, codes, scale, func(dst []float32, codes []uint32, scale float32, lo, hi int) {
		for i := lo; i < hi; i++ {
			switch codes[i] {
			case 1:
				dst[i] = scale
			case 2:
				dst[i] = -scale
			default:
				dst[i] = 0
			}
		}
	})
	t.st.ObserveSince(telemetry.StageConvert, 4*n, t0)
	return nil
}
