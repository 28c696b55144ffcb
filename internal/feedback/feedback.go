// Package feedback implements error-feedback (residual accumulation) on
// top of any gradient compressor.
//
// The paper notes (Sec. 5) that the heuristics Deep Gradient Compression
// uses to rescue vanilla Top-k — error accumulation and momentum
// correction — are "orthogonal to our methods and can also be applied to
// improve ours". This package is that extension: the compressor wrapper
// keeps the per-worker residual e_t = g_t + e_{t-1} − ĝ_t and folds it
// into the next iteration's gradient, so information dropped by
// sparsification is delayed rather than lost. Under the bounded-error
// Assumption 3.2 this restores convergence even for fixed aggressive θ.
package feedback

import (
	"fmt"
	"math"

	"fftgrad/internal/compress"
)

// Compressor wraps an inner compressor with error feedback. It is NOT
// safe for concurrent use: each training worker owns one instance (the
// residual is per-worker state, exactly as in DGC). Capabilities of the
// inner compressor (θ schedules, stage timers) are reached through Inner
// by compress.As.
type Compressor struct {
	inner    compress.Compressor
	residual []float32
	carry    []float32 // scratch: g + residual
	rec      []float32 // scratch: decode(msg), what the receiver will see
}

// New wraps inner with error feedback.
func New(inner compress.Compressor) *Compressor {
	return &Compressor{inner: inner}
}

// Name implements compress.Compressor.
func (c *Compressor) Name() string { return c.inner.Name() + "+ef" }

// Inner returns the wrapped compressor.
func (c *Compressor) Inner() compress.Compressor { return c.inner }

// sized allocates the per-worker buffers on first use and reports
// whether they match an n-element gradient.
func (c *Compressor) sized(n int) bool {
	if c.residual == nil {
		c.residual = make([]float32, n)
		c.carry = make([]float32, n)
		c.rec = make([]float32, n)
	}
	return len(c.residual) == n
}

// AppendCompress adds the accumulated residual to grad, appends the
// inner compressor's message for the sum to dst, and retains what the
// compression dropped as the next residual. grad is not modified.
func (c *Compressor) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	if !c.sized(len(grad)) {
		return nil, fmt.Errorf("feedback: gradient length changed from %d to %d", len(c.residual), len(grad))
	}
	for i := range c.carry {
		c.carry[i] = grad[i] + c.residual[i]
	}
	out, err := roundTrip(c.inner, dst, c.carry, c.rec)
	if err != nil {
		return nil, err
	}
	// Residual = what the receiver will NOT see: carry − decode(msg).
	for i := range c.residual {
		c.residual[i] = c.carry[i] - c.rec[i]
	}
	return out, nil
}

// roundTrip appends inner's message for x to dst and decodes that message
// back into rec, so the caller can keep x − rec.
func roundTrip(inner compress.Compressor, dst []byte, x, rec []float32) ([]byte, error) {
	out, err := inner.AppendCompress(dst, x)
	if err != nil {
		return nil, err
	}
	if err := inner.DecompressInto(rec, out[len(dst):]); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressInto forwards to the inner compressor (reconstruction is
// stateless; the feedback lives entirely on the sender).
func (c *Compressor) DecompressInto(dst []float32, msg []byte) error {
	return c.inner.DecompressInto(dst, msg)
}

// AccumulateInto forwards to the inner compressor, like DecompressInto.
func (c *Compressor) AccumulateInto(dst []float32, msg []byte, wt, scale float32) error {
	return compress.AccumulateInto(c.inner, dst, msg, wt, scale)
}

// AddToResidual folds g into the residual. The failure-aware trainer
// calls this with a gradient that was computed but never shipped (the
// rank crashed or was evicted before its exchange completed): instead of
// discarding the work, the information re-enters the stream on the next
// successful iteration, exactly like sparsification error under the
// Sec. 3.4 bounded-error assumption.
func (c *Compressor) AddToResidual(g []float32) { c.AddToResidualScaled(g, 1) }

// AddToResidualScaled folds scale·g into the residual — the
// staleness-discounted accumulation of the bounded-staleness mode. When
// a peer's d-iteration-old gradient is folded into a round with weight
// λ^d, the withheld (1−λ^d) share would otherwise leave the information
// stream entirely; each receiver banks its share of that mass here, so
// it re-enters through the next compressed message exactly like
// sparsification error under the Sec. 3.4 bounded-error assumption.
func (c *Compressor) AddToResidualScaled(g []float32, scale float32) {
	if scale == 0 || !c.sized(len(g)) {
		return
	}
	for i, v := range g {
		c.residual[i] += scale * v
	}
}

// ResidualNorm returns the L2 norm of the current residual — a direct
// measurement of how much information is in flight (deferred, not lost).
func (c *Compressor) ResidualNorm() float64 {
	var s float64
	for _, v := range c.residual {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
