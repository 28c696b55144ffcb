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

// blockK is the k-dimension blocking factor of the matmul kernels, sized
// so a block of B rows stays in L1.
const blockK = 256

// MatMul computes C = A·B for A [m×k] and B [k×n], writing into the
// provided C [m×n] (overwritten). Parallel over rows of A.
func MatMul(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v·%v→%v", a.Shape, b.Shape, c.Shape))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	parallel.ForGrain(m, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := cd[i*n : (i+1)*n]
			for x := range crow {
				crow[x] = 0
			}
			for k0 := 0; k0 < k; k0 += blockK {
				kEnd := k0 + blockK
				if kEnd > k {
					kEnd = k
				}
				for p := k0; p < kEnd; p++ {
					av := ad[i*k+p]
					if av == 0 {
						continue
					}
					brow := bd[p*n : (p+1)*n]
					for x, bv := range brow {
						crow[x] += av * bv
					}
				}
			}
		}
	})
}

// MatMulTransB computes C = A·Bᵀ for A [m×k] and B [n×k], writing into
// C [m×n]. This is the y = x·Wᵀ shape used by dense layers.
func MatMulTransB(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTransB shape mismatch %v·%vᵀ→%v", a.Shape, b.Shape, c.Shape))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	parallel.ForGrain(m, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			for j := 0; j < n; j++ {
				brow := bd[j*k : (j+1)*k]
				var acc float32
				for p := range arow {
					acc += arow[p] * brow[p]
				}
				cd[i*n+j] = acc
			}
		}
	})
}

// MatMulTransA computes C = Aᵀ·B for A [k×m] and B [k×n], writing into
// C [m×n]. This is the weight-gradient shape dW = xᵀ·dy.
func MatMulTransA(c, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTransA shape mismatch %vᵀ·%v→%v", a.Shape, b.Shape, c.Shape))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	parallel.ForGrain(m, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := cd[i*n : (i+1)*n]
			for x := range crow {
				crow[x] = 0
			}
			for p := 0; p < k; p++ {
				av := ad[p*m+i]
				if av == 0 {
					continue
				}
				brow := bd[p*n : (p+1)*n]
				for x, bv := range brow {
					crow[x] += av * bv
				}
			}
		}
	})
}

// AddBiasRows adds bias (length n) to every row of x [m×n], in place.
func AddBiasRows(x *Tensor, bias []float32) {
	m, n := x.Shape[0], x.Shape[1]
	if len(bias) != n {
		panic("tensor: bias length mismatch")
	}
	parallel.ForGrain(m, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := x.Data[i*n : (i+1)*n]
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
