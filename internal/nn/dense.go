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

	x     *tensor.Tensor // cached input, as an [N×In] matrix
	y, dx *tensor.Tensor // the layer's output and input gradient
	// W.Data and W.Grad as [Out×In] matrices, re-pointed on every call.
	wData, wGrad *tensor.Tensor
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
	if w := x.Len() / n; w != d.In {
		panic(fmt.Sprintf("nn: %s got input width %d", d.name(), w))
	}
	// The input's header is built again only for a new batch size and
	// re-pointed at x on every call.
	if d.x == nil || d.x.Len() != x.Len() {
		d.x = x.Reshape(n, d.In)
	}
	d.x.Data = x.Data
	d.y = reuse(d.y, n, d.Out)
	d.wData = view(d.wData, d.W.Data, d.Out, d.In)
	tensor.MatMulTransB(d.y, d.x, d.wData)
	tensor.AddBiasRows(d.y, d.B.Data)
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkGrad(d, d.y, dy)
	n := dy.Dim(0)
	// dW += dyᵀ·x  — shape [out×in], accumulated in place
	d.wGrad = view(d.wGrad, d.W.grad(), d.Out, d.In)
	tensor.AddMatMulTransA(d.wGrad, dy, d.x)
	// db += column sums of dy
	db := d.B.grad()
	for i := 0; i < n; i++ {
		row := dy.Data[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			db[j] += v
		}
	}
	// dx = dy·W — [N×in], through the view Forward refreshed
	d.dx = reuse(d.dx, n, d.In)
	tensor.MatMul(d.dx, dy, d.wData)
	return d.dx
}
