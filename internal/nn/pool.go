package nn

import (
	"fmt"
	"math"

	"fftgrad/internal/parallel"
	"fftgrad/internal/tensor"
)

// MaxPool2D is a square max pooling layer over NCHW tensors.
type MaxPool2D struct {
	Size, Stride int

	inShape []int
	argmax  []int32        // flat input index of each output element's maximum
	y, dx   *tensor.Tensor // the layer's output and input gradient
}

// NewMaxPool2D creates a max-pooling layer. A stride of 0 defaults to size.
func NewMaxPool2D(size, stride int) *MaxPool2D {
	if stride == 0 {
		stride = size
	}
	return &MaxPool2D{Size: size, Stride: stride}
}

func (p *MaxPool2D) name() string { return fmt.Sprintf("maxpool(%d,s%d)", p.Size, p.Stride) }

// Params implements Layer.
func (*MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := (h-p.Size)/p.Stride + 1
	ow := (w-p.Size)/p.Stride + 1
	p.inShape = append(p.inShape[:0], x.Shape...)
	p.y = reuse(p.y, n, c, oh, ow)
	if cap(p.argmax) < p.y.Len() {
		p.argmax = make([]int32, p.y.Len())
	}
	p.argmax = p.argmax[:p.y.Len()]

	body := poolPlanes
	if p.Size == 2 && p.Stride == 2 {
		body = pool2x2Planes
	}
	parallel.ForGrain2(n*c, 4, p, x.Data, body)
	return p.y
}

// poolPlanes pools planes [lo, hi) of x into p.y and p.argmax, for any
// geometry.
func poolPlanes(p *MaxPool2D, x []float32, lo, hi int) {
	h, w := p.inShape[2], p.inShape[3]
	oh, ow := p.y.Dim(2), p.y.Dim(3)
	for pl := lo; pl < hi; pl++ {
		in := x[pl*h*w : (pl+1)*h*w]
		outBase := pl * oh * ow
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				// Start from the window's first element, not -Inf: a
				// window of NaN or -Inf then still has an argmax, and
				// a leading NaN reaches the output.
				bestIdx := int32(pl*h*w + i*p.Stride*w + j*p.Stride)
				best := x[bestIdx]
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
				p.y.Data[outBase+i*ow+j] = best
				p.argmax[outBase+i*ow+j] = bestIdx
			}
		}
	}
}

// pool2x2Planes is poolPlanes for 2×2 windows at stride 2, unrolled: each
// window starts from its first element and compares v > best in the same
// order, so NaN and -Inf windows pool as they do there.
func pool2x2Planes(p *MaxPool2D, x []float32, lo, hi int) {
	h, w := p.inShape[2], p.inShape[3]
	oh, ow := p.y.Dim(2), p.y.Dim(3)
	for pl := lo; pl < hi; pl++ {
		for i := 0; i < oh; i++ {
			r0 := pl*h*w + 2*i*w
			top, bot := x[r0:r0+2*ow], x[r0+w:r0+w+2*ow]
			y := p.y.Data[(pl*oh+i)*ow:][:ow]
			arg := p.argmax[(pl*oh+i)*ow:][:ow]
			for j := range y {
				a := r0 + 2*j
				best, idx := math.Float32bits(top[2*j]), a
				best, idx = maxStep(best, idx, top[2*j+1], a+1)
				best, idx = maxStep(best, idx, bot[2*j], a+w)
				best, idx = maxStep(best, idx, bot[2*j+1], a+w+1)
				y[j], arg[j] = math.Float32frombits(best), int32(idx)
			}
		}
	}
}

// maxStep is one step of a window's scan, if v > best { best, idx = v, i },
// with best carried as its bit pattern: that way the compiler selects both
// with conditional moves, and which element wins, which is data, costs no
// mispredicted branch.
func maxStep(best uint32, idx int, v float32, i int) (uint32, int) {
	vb := math.Float32bits(v)
	if v > math.Float32frombits(best) {
		best, idx = vb, i
	}
	return best, idx
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkGrad(p, p.y, dy)
	p.dx = reuse(p.dx, p.inShape...)
	parallel.ForGrain2(p.inShape[0]*p.inShape[1], 4, p, dy.Data, unpoolPlanes)
	return p.dx
}

// unpoolPlanes routes planes [lo, hi) of dy to their argmax inputs in
// p.dx. Different output cells can share an argmax only within a plane
// when pooling windows overlap; planes are disjoint, so the planes run in
// parallel and each accumulates serially.
func unpoolPlanes(p *MaxPool2D, dy []float32, lo, hi int) {
	inPlane, outPlane := p.inShape[2]*p.inShape[3], p.y.Dim(2)*p.y.Dim(3)
	dx := p.dx.Data
	clear(dx[lo*inPlane : hi*inPlane])
	for i := lo * outPlane; i < hi*outPlane; i++ {
		dx[p.argmax[i]] += dy[i]
	}
}
