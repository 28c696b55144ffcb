// Package optim implements the optimizer and schedules used throughout
// the paper's evaluation: SGD with momentum 0.9 and piecewise-constant
// learning rates (Sec. 4, "Training setup").
//
// The optimizer operates on the flat gradient vector that the compression
// pipeline produces, keeping the data path identical with and without
// compression.
package optim

import (
	"fmt"

	"fftgrad/internal/parallel"
)

// SGD is stochastic gradient descent with classical momentum:
//
//	v ← μ·v + g;   Δθ = −η·v
type SGD struct {
	LR       float64
	Momentum float64
	velocity []float32
}

// NewSGD creates an optimizer for a flat parameter vector of length n.
func NewSGD(lr, momentum float64, n int) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make([]float32, n)}
}

// Delta consumes the (averaged) flat gradient and writes the parameter
// update −η·v into dst, which must have the same length. Returns dst.
func (s *SGD) Delta(dst, grad []float32) []float32 {
	if len(grad) != len(s.velocity) || len(dst) != len(s.velocity) {
		panic(fmt.Sprintf("optim: gradient length %d != optimizer size %d", len(grad), len(s.velocity)))
	}
	mu := float32(s.Momentum)
	lr := float32(s.LR)
	for i, g := range grad {
		v := mu*s.velocity[i] + g
		s.velocity[i] = v
		dst[i] = -lr * v
	}
	return dst
}

// Step consumes the (averaged) flat gradient and applies the update to
// the flat parameter vector (the network's own, nn.Network.Data) in one
// parallel pass: v ← μ·v + g, then p ← p + (−η·v). Each element takes
// exactly the float32 operations of Delta followed by
// nn.Network.AddToParams.
func (s *SGD) Step(params, grad []float32) {
	if len(grad) != len(s.velocity) || len(params) != len(s.velocity) {
		panic(fmt.Sprintf("optim: gradient length %d, %d parameters, optimizer size %d", len(grad), len(params), len(s.velocity)))
	}
	parallel.ForGrain1(len(params), stepGrain, step{params, grad, s.velocity, float32(s.Momentum), float32(s.LR)},
		func(c step, lo, hi int) {
			active.step(c.params[lo:hi], c.velocity[lo:hi], c.grad[lo:hi], c.mu, c.lr)
		})
}

// stepGrain keeps small models on the calling goroutine.
const stepGrain = 1 << 14

// step is Step's state, threaded by value to each range.
type step struct {
	params, grad, velocity []float32
	mu, lr                 float32
}

// AppendState appends a copy of the momentum buffer to dst, for
// checkpointing.
func (s *SGD) AppendState(dst []float32) []float32 {
	return append(dst, s.velocity...)
}

// Restore overwrites the momentum buffer from a checkpointed state.
func (s *SGD) Restore(v []float32) {
	if len(v) != len(s.velocity) {
		panic(fmt.Sprintf("optim: velocity length %d != optimizer size %d", len(v), len(s.velocity)))
	}
	copy(s.velocity, v)
}

// LRSchedule yields the learning rate for a 0-based epoch.
type LRSchedule interface {
	LR(epoch int) float64
}

// ConstLR is a fixed learning rate.
type ConstLR float64

// LR implements LRSchedule.
func (c ConstLR) LR(epoch int) float64 { return float64(c) }
