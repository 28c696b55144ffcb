package nn

import (
	"fftgrad/internal/parallel"
	"fftgrad/internal/tensor"
)

// ReLU is the rectified linear activation, y = max(0, x).
type ReLU struct {
	mask []bool
}

// NewReLU creates a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Params implements Layer.
func (*ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape...)
	if cap(l.mask) < x.Len() {
		l.mask = make([]bool, x.Len())
	}
	l.mask = l.mask[:x.Len()]
	parallel.For(x.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x.Data[i] > 0 {
				y.Data[i] = x.Data[i]
				l.mask[i] = true
			} else {
				l.mask[i] = false
			}
		}
	})
	return y
}

// Backward implements Layer.
func (l *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dy.Shape...)
	parallel.For(dy.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if l.mask[i] {
				dx.Data[i] = dy.Data[i]
			}
		}
	})
	return dx
}

// Flatten reshapes [N, ...] to [N, D]. It is a pure view change.
type Flatten struct {
	inShape []int
}

// NewFlatten creates a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Params implements Layer.
func (*Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inShape = append(l.inShape[:0], x.Shape...)
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (l *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(l.inShape...)
}
