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

// QSGD implements the stochastic uniform quantizer of Alistarh et al.
// (NeurIPS 2017). Each coordinate is mapped to one of 2s+1 signed levels
//
//	v_i  →  ‖v‖₂ · sgn(v_i) · ξ_i,   ξ_i ∈ {0, 1/s, 2/s, …, 1}
//
// where ξ_i is a randomized rounding of |v_i|/‖v‖₂·s, unbiased in
// expectation. The paper's experiments use 8 bins ≈ 3 bits per gradient
// (s = 3 ⇒ 7 levels ⇒ 3-bit codes ⇒ ratio 32/3 ≈ 10.6x).
type QSGD struct {
	// Levels is s, the number of positive quantization levels.
	Levels int
	seed   atomic.Uint64
	st     *telemetry.StageTimer
}

// Instrument implements Instrumentable: subsequent (de)compressions
// report per-stage wall time to st. QSGD is a pure quantizer — the
// norm + stochastic-rounding pass is Tm (precision conversion) and the
// code bit-packing is Tp; there is no transform or selection stage.
func (q *QSGD) Instrument(st *telemetry.StageTimer) { q.st = st }

// NewQSGD creates a QSGD compressor with s positive levels (s >= 1).
func NewQSGD(levels int) *QSGD {
	q := &QSGD{Levels: levels}
	q.seed.Store(0x6A09E667F3BCC908)
	return q
}

// Name implements Compressor.
func (*QSGD) Name() string { return "qsgd" }

// codeBits returns the code width needed for 2s+1 states.
func (q *QSGD) codeBits() int {
	states := 2*q.Levels + 1
	bits := 1
	for 1<<uint(bits) < states {
		bits++
	}
	return bits
}

// qsgdEnc carries the per-message encoding parameters through For3 by
// value, keeping the loop body capture-free (see parallel.For2).
type qsgdEnc struct {
	seed   uint64
	norm   float64
	levels int
}

// qsgdDec likewise for decoding.
type qsgdDec struct {
	norm   float64
	levels int
}

// AppendCompress implements Compressor.
//
// Wire format: u32 n | u32 s | f32 ‖v‖₂ | packed (2s+1)-state codes.
func (q *QSGD) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	if q.Levels < 1 {
		return nil, fmt.Errorf("qsgd: levels must be >= 1, got %d", q.Levels)
	}
	n := len(grad)
	t0 := time.Now()
	var norm float64
	for _, v := range grad {
		norm += float64(v) * float64(v)
	}
	norm = math.Sqrt(norm)

	seed := q.seed.Add(0x9E3779B97F4A7C15)
	codesb := scratch.Uint32s(n)
	defer scratch.PutUint32s(codesb)
	codes := *codesb
	if norm > 0 {
		parallel.For3(n, codes, grad, qsgdEnc{seed: seed, norm: norm, levels: q.Levels},
			func(codes []uint32, grad []float32, e qsgdEnc, lo, hi int) {
				s := float64(e.levels)
				for i := lo; i < hi; i++ {
					v := float64(grad[i])
					mag := math.Abs(v) / e.norm * s
					level := math.Floor(mag)
					frac := mag - level
					if uniform01(e.seed, i) < frac {
						level++
					}
					if level > s {
						level = s
					}
					signed := int(level)
					if v < 0 {
						signed = -signed
					}
					codes[i] = uint32(signed + e.levels) // shift to [0, 2s]
				}
			})
	} else {
		for i := range codes {
			codes[i] = uint32(q.Levels) // level 0
		}
	}
	q.st.ObserveSince(telemetry.StageConvert, 4*n, t0)

	t0 = time.Now()
	dst = putHeader(dst, uint32(n), uint32(q.Levels), math.Float32bits(float32(norm)))
	dst = quant.AppendCodes(dst, codes, q.codeBits())
	q.st.ObserveSince(telemetry.StagePack, 4*n, t0)
	return dst, nil
}

// DecompressInto implements Compressor.
func (q *QSGD) DecompressInto(dst []float32, msg []byte) error {
	var hdr [3]uint32
	rest, err := readHeaderInto(hdr[:], msg)
	if err != nil {
		return err
	}
	n, levels := int(hdr[0]), int(hdr[1])
	norm := float64(math.Float32frombits(hdr[2]))
	if n != len(dst) {
		return fmt.Errorf("qsgd: message for %d elements, dst has %d", n, len(dst))
	}
	if levels < 1 || levels > 1<<20 {
		return fmt.Errorf("qsgd: bad level count %d", levels)
	}
	bits := 1
	for 1<<uint(bits) < 2*levels+1 {
		bits++
	}
	t0 := time.Now()
	codesb := scratch.Uint32s(n)
	defer scratch.PutUint32s(codesb)
	codes := *codesb
	if err := quant.UnpackCodesInto(codes, rest, bits); err != nil {
		return err
	}
	q.st.ObserveSince(telemetry.StagePack, 4*n, t0)
	t0 = time.Now()
	parallel.For3(n, dst, codes, qsgdDec{norm: norm, levels: levels},
		func(dst []float32, codes []uint32, d qsgdDec, lo, hi int) {
			s := float64(d.levels)
			for i := lo; i < hi; i++ {
				signed := int(codes[i]) - d.levels
				dst[i] = float32(d.norm * float64(signed) / s)
			}
		})
	q.st.ObserveSince(telemetry.StageConvert, 4*n, t0)
	return nil
}
