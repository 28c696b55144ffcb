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

// taps returns the outputs [lo, hi) of an axis of n whose input index
// o·s + off lies inside [0, in): the in-image span of one kernel tap.
func taps(n, in, s, off int) (lo, hi int) {
	if off < 0 {
		lo = (s - 1 - off) / s
	}
	if last := in - 1 - off; last >= 0 {
		hi = min(n, last/s+1)
	}
	return min(lo, hi), hi
}

// flatShift reports whether every kernel row of g is its input plane
// shifted by one offset (stride 1, outW == InW, so outH == InH too), and
// if so returns the span [a, b) of a row whose shifted index j+d stays
// in the plane, within the tap's in-image output rows [oh0, oh1). Every
// entry of those rows outside the span, and every one inside it that
// lands on a wrong element of the plane, is in an out-of-image edge
// column.
func (g ConvGeom) flatShift(kh, kw, oh0, oh1 int) (flat bool, d, a, b int) {
	if g.Stride != 1 || g.OutW() != g.InW {
		return false, 0, 0, 0
	}
	d = (kh-g.Pad)*g.InW + kw - g.Pad
	a = min(max(oh0*g.InW, -d), oh1*g.InW)
	b = max(a, min(oh1*g.InW, g.InH*g.InW-d))
	return true, d, a, b
}

// clearEdges zeroes the out-of-image columns [0, ow0) and [ow1, outW) of
// rows [oh0, oh1) of one kernel row.
func clearEdges(row []float32, outW, oh0, oh1, ow0, ow1 int) {
	if ow0 == 0 && ow1 == outW {
		return
	}
	for oh := oh0; oh < oh1; oh++ {
		r := row[oh*outW : (oh+1)*outW]
		for i := 0; i < ow0; i++ {
			r[i] = 0
		}
		for i := ow1; i < outW; i++ {
			r[i] = 0
		}
	}
}

// Im2col expands one image x [C×H×W] into columns dst
// [(C·K·K) × (outH·outW)] so convolution becomes a matrix product
// W[outC × C·K·K] · cols. Out-of-bounds taps read zero (padding).
//
// Each kernel row is written span by span: the in-image output rows and
// columns are worked out once per tap (kh, kw), for every channel. At
// stride 1 with outW == InW the row is one copy of the shifted plane
// with its edge columns zeroed; at every other geometry one element at a
// time, with no bounds test per element.
func Im2col(dst []float32, x []float32, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	k, plane := g.Kernel, g.InH*g.InW
	if len(dst) != g.InC*k*k*cols || len(x) != g.InC*plane {
		panic(fmt.Sprintf("tensor: im2col of %d input values into %d columns, geometry %+v", len(x), len(dst), g))
	}
	for kh := 0; kh < k; kh++ {
		oh0, oh1 := taps(outH, g.InH, g.Stride, kh-g.Pad)
		for kw := 0; kw < k; kw++ {
			ow0, ow1 := taps(outW, g.InW, g.Stride, kw-g.Pad)
			flat, d, a, b := g.flatShift(kh, kw, oh0, oh1)
			for c := 0; c < g.InC; c++ {
				xp := x[c*plane : (c+1)*plane]
				row := (c*k+kh)*k + kw
				drow := dst[row*cols : (row+1)*cols]
				clear(drow[:oh0*outW])
				clear(drow[oh1*outW:])
				if flat {
					if a < b {
						copy(drow[a:b], xp[a+d:b+d])
					}
					clearEdges(drow, outW, oh0, oh1, ow0, ow1)
					continue
				}
				for oh := oh0; oh < oh1; oh++ {
					orow := drow[oh*outW : (oh+1)*outW]
					xrow := xp[(oh*g.Stride+kh-g.Pad)*g.InW:][:g.InW]
					clear(orow[:ow0])
					clear(orow[ow1:])
					for ow := ow0; ow < ow1; ow++ {
						orow[ow] = xrow[ow*g.Stride+kw-g.Pad]
					}
				}
			}
		}
	}
}

// Col2im scatter-adds columns (the gradient of Im2col) back into an image
// dx [C×H×W]. Every element of dx receives its terms in (kh, kw) order,
// one rounding each, as the plain loop over the columns gives (an
// element's terms all come from its own channel's rows). dx must be
// cleared (+0) by the caller.
//
// Col2im clobbers cols: at stride 1 with outW == InW it zeroes the
// out-of-image entries of each kernel row, then adds the row's shifted
// span to the plane in one pass through the kernel table. The zeroed
// entries add +0 to elements they do not belong to, which leaves them
// unchanged: dx starts at +0, a round-to-nearest sum is −0 only when both
// addends are, so dx never holds −0, and x + (+0) = x for every other x,
// NaN included.
func Col2im(dx []float32, cols []float32, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	nCols := outH * outW
	k, plane := g.Kernel, g.InH*g.InW
	if len(cols) != g.InC*k*k*nCols || len(dx) != g.InC*plane {
		panic(fmt.Sprintf("tensor: col2im of %d columns into %d image values, geometry %+v", len(cols), len(dx), g))
	}
	for kh := 0; kh < k; kh++ {
		oh0, oh1 := taps(outH, g.InH, g.Stride, kh-g.Pad)
		for kw := 0; kw < k; kw++ {
			ow0, ow1 := taps(outW, g.InW, g.Stride, kw-g.Pad)
			flat, d, a, b := g.flatShift(kh, kw, oh0, oh1)
			for c := 0; c < g.InC; c++ {
				xp := dx[c*plane : (c+1)*plane]
				row := (c*k+kh)*k + kw
				crow := cols[row*nCols : (row+1)*nCols]
				if flat {
					if a < b {
						clearEdges(crow, outW, oh0, oh1, ow0, ow1)
						active.add(xp[a+d:b+d], crow[a:b])
					}
					continue
				}
				for oh := oh0; oh < oh1; oh++ {
					xrow := xp[(oh*g.Stride+kh-g.Pad)*g.InW:][:g.InW]
					orow := crow[oh*outW : (oh+1)*outW]
					for ow := ow0; ow < ow1; ow++ {
						xrow[ow*g.Stride+kw-g.Pad] += orow[ow]
					}
				}
			}
		}
	}
}
