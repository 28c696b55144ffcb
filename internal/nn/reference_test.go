package nn

import (
	"fftgrad/internal/parallel"
	"fftgrad/internal/tensor"
)

// The ReLU and MaxPool2D layers as they were before the branch-free and
// unrolled paths, with fresh outputs, kept verbatim as the reference
// TestConvHalfMatchesReference and FuzzConvHalfMatchesReference hold them
// to bit for bit (Im2col and Col2im have theirs in package tensor), and
// the Dense layer's backward pass as it was before it accumulated in
// place, the reference of TestDenseBackwardMatchesReference.

// seedFor runs the seed ReLU's loops at the grain its parallel.For had.
func seedFor(n int, body func(lo, hi int)) { parallel.ForGrain(n, 4096, body) }

// seedReLU is the rectified linear activation, y = max(0, x).
type seedReLU struct {
	mask []bool
}

func (l *seedReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape...)
	if cap(l.mask) < x.Len() {
		l.mask = make([]bool, x.Len())
	}
	l.mask = l.mask[:x.Len()]
	seedFor(x.Len(), func(lo, hi int) {
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

func (l *seedReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dy.Shape...)
	seedFor(dy.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if l.mask[i] {
				dx.Data[i] = dy.Data[i]
			}
		}
	})
	return dx
}

// seedMaxPool2D is a square max pooling layer over NCHW tensors.
type seedMaxPool2D struct {
	Size, Stride int

	inShape []int
	argmax  []int32 // flat input index of each output element's maximum
}

func (p *seedMaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := (h-p.Size)/p.Stride + 1
	ow := (w-p.Size)/p.Stride + 1
	p.inShape = append(p.inShape[:0], x.Shape...)
	y := tensor.New(n, c, oh, ow)
	if cap(p.argmax) < y.Len() {
		p.argmax = make([]int32, y.Len())
	}
	p.argmax = p.argmax[:y.Len()]

	planes := n * c
	parallel.ForGrain(planes, 4, func(lo, hi int) {
		for pl := lo; pl < hi; pl++ {
			in := x.Data[pl*h*w : (pl+1)*h*w]
			outBase := pl * oh * ow
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					// Start from the window's first element, not -Inf: a
					// window of NaN or -Inf then still has an argmax, and
					// a leading NaN reaches the output.
					bestIdx := int32(pl*h*w + i*p.Stride*w + j*p.Stride)
					best := x.Data[bestIdx]
					for di := 0; di < p.Size; di++ {
						ih := i*p.Stride + di
						for dj := 0; dj < p.Size; dj++ {
							iw := j*p.Stride + dj
							v := in[ih*w+iw]
							if v > best {
								best = v
								bestIdx = int32(pl*h*w + ih*w + iw)
							}
						}
					}
					y.Data[outBase+i*ow+j] = best
					p.argmax[outBase+i*ow+j] = bestIdx
				}
			}
		}
	})
	return y
}

func (p *seedMaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(p.inShape...)
	// Different output cells can share an argmax only within a plane when
	// pooling windows overlap; planes are disjoint, so parallelize over
	// planes and accumulate serially within one.
	n, c := p.inShape[0], p.inShape[1]
	planes := n * c
	perPlane := dy.Len() / planes
	parallel.ForGrain(planes, 4, func(lo, hi int) {
		for pl := lo; pl < hi; pl++ {
			for i := pl * perPlane; i < (pl+1)*perPlane; i++ {
				dx.Data[p.argmax[i]] += dy.Data[i]
			}
		}
	})
	return dx
}

// seedDense is the fully-connected layer with the weight gradient
// computed into scratch and then folded into W.Grad.
type seedDense struct {
	In, Out int
	W, B    *Param

	x     *tensor.Tensor // cached input
	dW    *tensor.Tensor // Backward's weight-gradient product, reused
	y, dx *tensor.Tensor // the layer's output and input gradient
}

func (d *seedDense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	x2 := x.Reshape(n, x.Len()/n)
	d.x = x2
	d.y = reuse(d.y, n, d.Out)
	tensor.MatMulTransB(d.y, x2, tensor.FromSlice(d.W.Data, d.Out, d.In))
	tensor.AddBiasRows(d.y, d.B.Data)
	return d.y
}

func (d *seedDense) Backward(dy *tensor.Tensor) *tensor.Tensor {
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
