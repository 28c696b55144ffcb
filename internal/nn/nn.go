// Package nn is a from-scratch neural-network substrate: layers with
// explicit forward/backward passes, a sequential network container, and —
// central to this reproduction — *gradient linearization*: every model
// keeps its gradient as one flat float32 vector (Network.Grad), which
// Backward accumulates into in place and which is exactly the 1-D signal
// the paper's compression pipeline consumes (step ① of Fig. 3).
//
// Each worker in data-parallel training owns a model replica, so layers
// cache forward activations for the backward pass without any locking.
//
// Layers own their activations: the tensor a layer's Forward or Backward
// returns is that layer's buffer, reused from call to call, and is valid
// until the layer's next Forward or Backward. A caller that keeps logits
// or an input gradient past that copies them out.
//
// Layers own their tensor headers too: every view a layer hands the
// matrix products is kept and re-pointed, one per sample or per Backward
// chunk where pool goroutines work side by side. So once the first batch
// of a size has built the buffers, a training step — ZeroGrads, Forward,
// SoftmaxCE.LossInto with the gradient it returned last time, Backward —
// allocates nothing.
package nn

import (
	"fmt"
	"slices"

	"fftgrad/internal/tensor"
)

// Param is one learnable parameter tensor with its gradient accumulator.
// In a network built by Sequential, Data is a window of the network's
// flat parameter vector (Network.Data) and Grad one of its flat gradient
// (Network.Grad); a layer used on its own allocates Grad on its first
// Backward, and a network that adopts it later starts it from zero.
type Param struct {
	Name string
	Data []float32
	Grad []float32
}

func newParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float32, n)}
}

// grad returns p.Grad, allocating it zeroed for a layer outside any
// network.
func (p *Param) grad() []float32 {
	if p.Grad == nil {
		p.Grad = make([]float32, len(p.Data))
	}
	return p.Grad
}

// Layer is a differentiable network stage. Forward must cache whatever it
// needs for the next Backward call; Backward returns dL/dx given dL/dy,
// which has the shape of the last Forward's output, and accumulates (+=)
// parameter gradients into each Param.Grad — in a network, straight into
// the network's flat gradient. Both return tensors the layer owns (see
// the package documentation).
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// reuse returns t reshaped to shape when its buffer is large enough, else
// a new zero tensor of that shape. The contents of a reused buffer are
// whatever the last call left there.
func reuse(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if t == nil || cap(t.Data) < n {
		return tensor.New(shape...)
	}
	t.Data = t.Data[:n]
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// view returns t pointed at data as a [rows×cols] matrix: t itself when
// it already has that shape, else a new header. A layer keeps every header
// it hands the products and re-points it on each call, so a steady-state
// call builds none.
func view(t *tensor.Tensor, data []float32, rows, cols int) *tensor.Tensor {
	if t == nil || len(data) != rows*cols || t.Dim(0) != rows || t.Dim(1) != cols {
		return tensor.FromSlice(data, rows, cols)
	}
	t.Data = data
	return t
}

// named is a layer that can describe itself in a panic message.
type named interface{ name() string }

// checkGrad panics unless dy has the shape of y, the output of the
// layer's last Forward (nil before the first).
func checkGrad(l named, y, dy *tensor.Tensor) {
	if y == nil || !slices.Equal(dy.Shape, y.Shape) {
		var want []int
		if y != nil {
			want = y.Shape
		}
		panic(fmt.Sprintf("nn: %s backward got dy of shape %v, its last forward returned %v", l.name(), dy.Shape, want))
	}
}

// Network is an ordered pipeline of layers. Build it with Sequential; its
// layers are fixed from then on.
type Network struct {
	Layers []Layer
	params []*Param  // every layer's parameters in order, gathered once
	data   []float32 // every Param.Data, back to back in params order
	grad   []float32 // every Param.Grad, back to back in params order
}

// Sequential builds a network from layers. It allocates the flat
// parameter vector and the flat gradient once, copies each parameter's
// initial values into its window of the first and makes Data and Grad
// those windows.
func Sequential(layers ...Layer) *Network {
	n := &Network{Layers: layers}
	size := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			n.params = append(n.params, p)
			size += len(p.Data)
		}
	}
	n.data, n.grad = make([]float32, size), make([]float32, size)
	off := 0
	for _, p := range n.params {
		k := len(p.Data)
		copy(n.data[off:], p.Data)
		p.Data, p.Grad = n.data[off:off+k:off+k], n.grad[off:off+k:off+k]
		off += k
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
func (n *Network) NumParams() int { return len(n.grad) }

// Data returns the flat parameter vector: every parameter's values back
// to back in Params order, with no copy. It is the network's own memory,
// not a snapshot: writes to it are writes to the parameters' Data, and
// the optimizer step, a parameter sync and SetParams change it in place.
func (n *Network) Data() []float32 { return n.data }

// Grad returns the flat gradient: every parameter's gradient back to back
// in Params order — the 1-D signal of step ① of the compression pipeline,
// with no copy. It is the network's own memory, not a snapshot: Backward
// accumulates into it and ZeroGrads clears it, so it holds this batch's
// gradient until the next ZeroGrads or Backward. Writes to it are writes
// to the parameters' Grad.
func (n *Network) Grad() []float32 { return n.grad }

// ZeroGrads clears every gradient accumulator.
func (n *Network) ZeroGrads() { clear(n.grad) }

// checkFlat panics unless a flat vector of length got fits the network.
func (n *Network) checkFlat(what string, got int) {
	if got != len(n.grad) {
		panic(fmt.Sprintf("nn: flat %s length %d != NumParams %d", what, got, len(n.grad)))
	}
}

// FlattenGrads copies the flat gradient into dst, which must have length
// NumParams. Returns dst.
func (n *Network) FlattenGrads(dst []float32) []float32 {
	n.checkFlat("gradient", len(dst))
	copy(dst, n.grad)
	return dst
}

// AddToParams applies a flat additive update (e.g. -η·v from the
// optimizer) across all parameters in the same order as Grad. A delta of
// the wrong length panics before any parameter changes.
func (n *Network) AddToParams(delta []float32) {
	n.checkFlat("update", len(delta))
	for i, d := range delta {
		n.data[i] += d
	}
}

// GetParams copies all parameter values into dst, which must have length
// NumParams, in flat order. Returns dst.
func (n *Network) GetParams(dst []float32) []float32 {
	n.checkFlat("param", len(dst))
	copy(dst, n.data)
	return dst
}

// SetParams overwrites all parameter values from a flat vector (the
// periodic parameter re-broadcast of the BSP trainer). A vector of the
// wrong length panics before any parameter changes.
func (n *Network) SetParams(src []float32) {
	n.checkFlat("param", len(src))
	copy(n.data, src)
}
