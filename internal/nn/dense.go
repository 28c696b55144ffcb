package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fftgrad/internal/tensor"
)

// Dense is a fully-connected layer: y = x·Wᵀ + b, for x [N×in] and
// W [out×in].
type Dense struct {
	In, Out int
	W, B    *Param

	x     *tensor.Tensor // cached input
	dW    *tensor.Tensor // Backward's weight-gradient product, reused
	y, dx *tensor.Tensor // the layer's output and input gradient
}

// NewDense creates a dense layer with He-normal initialized weights.
func NewDense(in, out int, r *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out,
		W: newParam(fmt.Sprintf("dense%dx%d.W", out, in), in*out),
		B: newParam(fmt.Sprintf("dense%dx%d.b", out, in), out),
	}
	std := math.Sqrt(2 / float64(in))
	for i := range d.W.Data {
		d.W.Data[i] = float32(r.NormFloat64() * std)
	}
	return d
}

func (d *Dense) name() string { return fmt.Sprintf("dense(%d→%d)", d.In, d.Out) }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	x2 := x.Reshape(n, x.Len()/n)
	if x2.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: %s got input width %d", d.name(), x2.Dim(1)))
	}
	d.x = x2
	d.y = reuse(d.y, n, d.Out)
	tensor.MatMulTransB(d.y, x2, tensor.FromSlice(d.W.Data, d.Out, d.In))
	tensor.AddBiasRows(d.y, d.B.Data)
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkGrad(d, d.y, dy)
	n := dy.Dim(0)
	// dW += dyᵀ·x  — shape [out×in]
	if d.dW == nil {
		d.dW = tensor.New(d.Out, d.In)
	}
	tensor.MatMulTransA(d.dW, dy, d.x)
	for i, v := range d.dW.Data {
		d.W.Grad[i] += v
	}
	// db += column sums of dy
	for i := 0; i < n; i++ {
		row := dy.Data[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			d.B.Grad[j] += v
		}
	}
	// dx = dy·W — [N×in]
	d.dx = reuse(d.dx, n, d.In)
	tensor.MatMul(d.dx, dy, tensor.FromSlice(d.W.Data, d.Out, d.In))
	return d.dx
}
