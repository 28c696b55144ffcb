// Package nn is a from-scratch neural-network substrate: layers with
// explicit forward/backward passes, a sequential network container, and —
// central to this reproduction — *gradient linearization*: every model
// exposes its gradient as one flat float32 vector, which is exactly the
// 1-D signal the paper's compression pipeline consumes (step ① of Fig. 3).
//
// Each worker in data-parallel training owns a model replica, so layers
// cache forward activations for the backward pass without any locking.
package nn

import (
	"fmt"

	"fftgrad/internal/tensor"
)

// Param is one learnable parameter tensor with its gradient accumulator.
type Param struct {
	Name string
	Data []float32
	Grad []float32
}

func newParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float32, n), Grad: make([]float32, n)}
}

// Layer is a differentiable network stage. Forward must cache whatever it
// needs for the next Backward call; Backward returns dL/dx given dL/dy and
// accumulates (+=) parameter gradients.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Network is an ordered pipeline of layers. Build it with Sequential; its
// layers are fixed from then on.
type Network struct {
	Layers []Layer
	params []*Param // every layer's parameters in order, gathered once
}

// Sequential builds a network from layers.
func Sequential(layers ...Layer) *Network {
	n := &Network{Layers: layers}
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
	}
	return n
}

// Forward runs the full pipeline.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the full backward pipeline from the loss gradient.
func (n *Network) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dy = n.Layers[i].Backward(dy)
	}
	return dy
}

// Params returns all learnable parameters in layer order. The slice is
// the network's own: callers must not modify it.
func (n *Network) Params() []*Param { return n.params }

// NumParams returns the total learnable scalar count — the length of the
// flat gradient vector (and, ×4, the per-iteration message size in bytes).
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Data)
	}
	return total
}

// ZeroGrads clears every gradient accumulator.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// FlattenGrads linearizes all parameter gradients into dst (which must
// have length NumParams) in deterministic layer order — step ① of the
// compression pipeline. Returns dst.
func (n *Network) FlattenGrads(dst []float32) []float32 {
	off := 0
	for _, p := range n.Params() {
		copy(dst[off:], p.Grad)
		off += len(p.Grad)
	}
	if off != len(dst) {
		panic(fmt.Sprintf("nn: flat gradient length %d != NumParams %d", len(dst), off))
	}
	return dst
}

// AddToParams applies a flat additive update (e.g. -η·v from the
// optimizer) across all parameters in the same order as FlattenGrads.
func (n *Network) AddToParams(delta []float32) {
	off := 0
	for _, p := range n.Params() {
		for i := range p.Data {
			p.Data[i] += delta[off+i]
		}
		off += len(p.Data)
	}
	if off != len(delta) {
		panic(fmt.Sprintf("nn: flat update length %d != NumParams %d", len(delta), off))
	}
}

// GetParams copies all parameter values into dst in flat order.
func (n *Network) GetParams(dst []float32) []float32 {
	off := 0
	for _, p := range n.Params() {
		copy(dst[off:], p.Data)
		off += len(p.Data)
	}
	return dst[:off]
}

// SetParams overwrites all parameter values from a flat vector (the
// periodic parameter re-broadcast of the BSP trainer).
func (n *Network) SetParams(src []float32) {
	off := 0
	for _, p := range n.Params() {
		copy(p.Data, src[off:off+len(p.Data)])
		off += len(p.Data)
	}
	if off != len(src) {
		panic(fmt.Sprintf("nn: flat param length %d != NumParams %d", len(src), off))
	}
}
