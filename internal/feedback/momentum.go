package feedback

import (
	"fmt"

	"fftgrad/internal/compress"
)

// MomentumCorrected implements DGC-style momentum correction: classical
// momentum is applied *before* sparsification, and the residual keeps the
// post-momentum update, so delayed gradient mass arrives already shaped
// by the momentum dynamics instead of being amplified by the optimizer's
// momentum afterwards:
//
//	u_t = m·u_{t-1} + g_t          (local velocity)
//	v_t = v_{t-1} + u_t            (accumulated update)
//	send  ĝ_t = C(v_t);   v_t ← v_t − ĝ_t
//
// When this wrapper is used, the trainer's optimizer must run WITHOUT its
// own momentum (the velocity lives here) — see TestMomentumCorrectedTrains.
type MomentumCorrected struct {
	inner compress.Compressor
	m     float64
	u, v  []float32
	rec   []float32 // scratch: decode(msg)
}

// NewMomentumCorrected wraps inner with momentum correction at momentum m.
func NewMomentumCorrected(inner compress.Compressor, m float64) *MomentumCorrected {
	return &MomentumCorrected{inner: inner, m: m}
}

// Name implements compress.Compressor.
func (c *MomentumCorrected) Name() string { return c.inner.Name() + "+mc" }

// Inner returns the wrapped compressor.
func (c *MomentumCorrected) Inner() compress.Compressor { return c.inner }

// AppendCompress implements compress.Compressor. grad is not modified.
func (c *MomentumCorrected) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	n := len(grad)
	if c.u == nil {
		c.u = make([]float32, n)
		c.v = make([]float32, n)
		c.rec = make([]float32, n)
	}
	if len(c.u) != n {
		return nil, fmt.Errorf("feedback: gradient length changed from %d to %d", len(c.u), n)
	}
	m := float32(c.m)
	for i := range c.u {
		c.u[i] = m*c.u[i] + grad[i]
		c.v[i] += c.u[i]
	}
	out, err := roundTrip(c.inner, dst, c.v, c.rec)
	if err != nil {
		return nil, err
	}
	for i := range c.v {
		c.v[i] -= c.rec[i]
	}
	return out, nil
}

// DecompressInto implements compress.Compressor.
func (c *MomentumCorrected) DecompressInto(dst []float32, msg []byte) error {
	return c.inner.DecompressInto(dst, msg)
}

// AccumulateInto forwards to the inner compressor.
func (c *MomentumCorrected) AccumulateInto(dst []float32, msg []byte, wt, scale float32) error {
	return compress.AccumulateInto(c.inner, dst, msg, wt, scale)
}
