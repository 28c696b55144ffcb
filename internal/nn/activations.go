package nn

import (
	"math"

	"fftgrad/internal/parallel"
	"fftgrad/internal/tensor"
)

// ReLU is the rectified linear activation: y = x where x > 0, else +0.
type ReLU struct {
	y, dx *tensor.Tensor
}

// NewReLU creates a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

func (*ReLU) name() string { return "relu" }

// Params implements Layer.
func (*ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.y = reuse(l.y, x.Shape...)
	parallel.For2(x.Len(), x.Data, l.y.Data, reluForward)
	return l.y
}

// reluForward sets y = x where x > 0 and +0 elsewhere (−0 and NaN
// included), without a branch: x > 0 exactly when its bit pattern is in
// [1, 0x7F800000], the positive subnormals up to +Inf.
func reluForward(x, y []float32, lo, hi int) {
	x, y = x[lo:hi], y[lo:hi]
	y = y[:len(x)]
	for i, v := range x {
		b := math.Float32bits(v)
		keep := uint32(int64(uint64(b-1)-0x7F800000) >> 63)
		y[i] = math.Float32frombits(b & keep)
	}
}

// Backward implements Layer: dx = dy where the forward output y is not
// +0, +0 elsewhere. y is never −0 or NaN, so y ≠ +0 is x > 0.
func (l *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkGrad(l, l.y, dy)
	l.dx = reuse(l.dx, dy.Shape...)
	parallel.For3(dy.Len(), l.y.Data, dy.Data, l.dx.Data, reluBackward)
	return l.dx
}

func reluBackward(y, dy, dx []float32, lo, hi int) {
	y, dy, dx = y[lo:hi], dy[lo:hi], dx[lo:hi]
	dy, dx = dy[:len(y)], dx[:len(y)]
	for i, v := range y {
		pass := uint32(int32(-math.Float32bits(v)) >> 31) // all ones unless y is +0
		dx[i] = math.Float32frombits(math.Float32bits(dy[i]) & pass)
	}
}

// Flatten reshapes [N, ...] to [N, D]. It is a pure view change: its
// output shares x's data and its input gradient dy's.
type Flatten struct {
	inShape []int
	y, dx   tensor.Tensor // the views Forward and Backward return
}

// NewFlatten creates a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

func (*Flatten) name() string { return "flatten" }

// Params implements Layer.
func (*Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inShape = append(l.inShape[:0], x.Shape...)
	n := x.Dim(0)
	l.y.Data, l.y.Shape = x.Data, append(l.y.Shape[:0], n, x.Len()/n)
	return &l.y
}

// Backward implements Layer.
func (l *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkGrad(l, &l.y, dy)
	l.dx.Data, l.dx.Shape = dy.Data, append(l.dx.Shape[:0], l.inShape...)
	return &l.dx
}
