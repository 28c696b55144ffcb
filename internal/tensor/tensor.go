// Package tensor provides the minimal dense float32 tensor machinery the
// DNN substrate needs: row-major shaped buffers, a blocked parallel
// matrix multiply (plus the transposed variants backpropagation needs),
// and im2col/col2im for expressing convolution as a matrix product.
//
// The paper's experiments run AlexNet and ResNet32 on GPUs; this package
// is the CPU stand-in compute engine. It is deliberately small — only the
// kernels the models in internal/models require.
package tensor

import (
	"fmt"

	"fftgrad/internal/parallel"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	Data  []float32
	Shape []int
}

// New allocates a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Data: make([]float32, n), Shape: append([]int(nil), shape...)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, have %d", shape, n, len(data)))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

// Len returns the total element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Reshape returns a view of t with a new shape of equal element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	return FromSlice(t.Data, shape...)
}

// rowGrain is the fewest output rows a parallel chunk of a product takes.
const rowGrain = 8

// The three products fix each output element's arithmetic: it starts at
// +0 and adds its terms one rounding at a time in ascending p, and the
// axpy forms (MatMul, MatMulTransA) skip a term whose multiplier is ±0.
// The kernels (kernels.go) reorder only which outputs are computed
// together, never the terms of one sum, so every product is bit for bit
// what the plain triple loop gives.

// MatMul computes C = A·B for A [m×k] and B [k×n], writing into the
// provided C [m×n] (overwritten). Parallel over rows of A.
func MatMul(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v·%v→%v", a.Shape, b.Shape, c.Shape))
	}
	g := gemm{c: c.Data, a: a.Data, b: b.Data, k: k, n: n, ai: k, ap: 1}
	parallel.ForGrain1(m, rowGrain, g, axpyRows)
}

// MatMulTransB computes C = A·Bᵀ for A [m×k] and B [n×k], writing into
// C [m×n]. This is the y = x·Wᵀ shape used by dense layers.
func MatMulTransB(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTransB shape mismatch %v·%vᵀ→%v", a.Shape, b.Shape, c.Shape))
	}
	g := gemm{c: c.Data, a: a.Data, b: b.Data, k: k, n: n}
	parallel.ForGrain1(m, rowGrain, g, active.transB)
}

// MatMulTransA computes C = Aᵀ·B for A [k×m] and B [k×n], writing into
// C [m×n]. This is the weight-gradient shape dW = xᵀ·dy.
func MatMulTransA(c, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTransA shape mismatch %vᵀ·%v→%v", a.Shape, b.Shape, c.Shape))
	}
	g := gemm{c: c.Data, a: a.Data, b: b.Data, k: k, n: n, ai: 1, ap: m}
	parallel.ForGrain1(m, rowGrain, g, axpyRows)
}

// AddBiasRows adds bias (length n) to every row of x [m×n], in place.
func AddBiasRows(x *Tensor, bias []float32) {
	m, n := x.Shape[0], x.Shape[1]
	if len(bias) != n {
		panic("tensor: bias length mismatch")
	}
	parallel.ForGrain2(m, 16, x.Data, bias, func(xd, bias []float32, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := xd[i*len(bias) : (i+1)*len(bias)]
			for j := range row {
				row[j] += bias[j]
			}
		}
	})
}

// ConvGeom describes a square convolution / pooling geometry.
type ConvGeom struct {
	InC, InH, InW int
	Kernel        int
	Stride        int
	Pad           int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.Kernel)/g.Stride + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.Kernel)/g.Stride + 1 }

// Im2col expands one image x [C×H×W] into columns dst
// [(C·K·K) × (outH·outW)] so convolution becomes a matrix product
// W[outC × C·K·K] · cols. Out-of-bounds taps read zero (padding).
func Im2col(dst []float32, x []float32, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	rows := g.InC * g.Kernel * g.Kernel
	if len(dst) != rows*cols {
		panic("tensor: im2col dst size mismatch")
	}
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.Kernel; kh++ {
			for kw := 0; kw < g.Kernel; kw++ {
				row := (c*g.Kernel+kh)*g.Kernel + kw
				drow := dst[row*cols : (row+1)*cols]
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.Stride + kh - g.Pad
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < outW; ow++ {
							drow[oh*outW+ow] = 0
						}
						continue
					}
					xrow := x[(c*g.InH+ih)*g.InW:]
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.Stride + kw - g.Pad
						if iw < 0 || iw >= g.InW {
							drow[oh*outW+ow] = 0
						} else {
							drow[oh*outW+ow] = xrow[iw]
						}
					}
				}
			}
		}
	}
}

// Col2im scatter-adds columns (the gradient of Im2col) back into an image
// dx [C×H×W]. dx must be pre-zeroed by the caller.
func Col2im(dx []float32, cols []float32, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	nCols := outH * outW
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.Kernel; kh++ {
			for kw := 0; kw < g.Kernel; kw++ {
				row := (c*g.Kernel+kh)*g.Kernel + kw
				crow := cols[row*nCols : (row+1)*nCols]
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.Stride + kh - g.Pad
					if ih < 0 || ih >= g.InH {
						continue
					}
					xrow := dx[(c*g.InH+ih)*g.InW:]
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.Stride + kw - g.Pad
						if iw >= 0 && iw < g.InW {
							xrow[iw] += crow[oh*outW+ow]
						}
					}
				}
			}
		}
	}
}
