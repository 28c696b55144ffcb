package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fftgrad/internal/parallel"
	"fftgrad/internal/tensor"
)

// Conv2D is a square 2-D convolution over NCHW tensors implemented as
// im2col + matrix multiply (the standard GEMM formulation the paper's GPU
// substrate uses).
type Conv2D struct {
	InC, OutC, Kernel, Stride, Pad int
	W, B                           *Param

	x     *tensor.Tensor  // cached input
	geom  tensor.ConvGeom // geometry of the cached input
	cols  [][]float32     // cached per-sample im2col buffers
	parts []convPart      // Backward's per-chunk scratch, reused
}

// convPart is one Backward chunk's scratch: its partial weight and bias
// gradients, and the two per-sample products it computes them from.
type convPart struct {
	dW, dB     []float32
	dWs, dcols *tensor.Tensor
}

// NewConv2D creates a convolution layer with He-normal initialization.
func NewConv2D(inC, outC, kernel, stride, pad int, r *rand.Rand) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		W: newParam(fmt.Sprintf("conv%dx%dk%d.W", outC, inC, kernel), outC*inC*kernel*kernel),
		B: newParam(fmt.Sprintf("conv%dx%dk%d.b", outC, inC, kernel), outC),
	}
	fanIn := float64(inC * kernel * kernel)
	std := math.Sqrt(2 / fanIn)
	for i := range c.W.Data {
		c.W.Data[i] = float32(r.NormFloat64() * std)
	}
	return c
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// Forward implements Layer. x is [N, InC, H, W].
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if ch != c.InC {
		panic(fmt.Sprintf("nn: conv(%d→%d,k%d,s%d,p%d) got %d input channels", c.InC, c.OutC, c.Kernel, c.Stride, c.Pad, ch))
	}
	g := tensor.ConvGeom{InC: ch, InH: h, InW: w, Kernel: c.Kernel, Stride: c.Stride, Pad: c.Pad}
	oh, ow := g.OutH(), g.OutW()
	rows := ch * c.Kernel * c.Kernel
	ncols := oh * ow

	c.x = x
	c.geom = g
	if len(c.cols) < n {
		c.cols = make([][]float32, n)
	}
	y := tensor.New(n, c.OutC, oh, ow)
	wT := tensor.FromSlice(c.W.Data, c.OutC, rows)

	parallel.ForGrain(n, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			if len(c.cols[s]) != rows*ncols {
				c.cols[s] = make([]float32, rows*ncols)
			}
			img := x.Data[s*ch*h*w : (s+1)*ch*h*w]
			tensor.Im2col(c.cols[s], img, g)
			out := tensor.FromSlice(y.Data[s*c.OutC*ncols:(s+1)*c.OutC*ncols], c.OutC, ncols)
			tensor.MatMul(out, wT, tensor.FromSlice(c.cols[s], rows, ncols))
			// add bias per output channel
			for oc := 0; oc < c.OutC; oc++ {
				b := c.B.Data[oc]
				row := out.Data[oc*ncols : (oc+1)*ncols]
				for i := range row {
					row[i] += b
				}
			}
		}
	})
	return y
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := dy.Dim(0)
	g := c.geom
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * c.Kernel * c.Kernel
	ncols := oh * ow
	imgLen := g.InC * g.InH * g.InW

	dx := tensor.New(n, g.InC, g.InH, g.InW)
	wT := tensor.FromSlice(c.W.Data, c.OutC, rows)

	// Per-worker partial dW/dB accumulators avoid write contention.
	chunks := parallel.Chunks(n, 1)
	for len(c.parts) < len(chunks) {
		c.parts = append(c.parts, convPart{
			dW:  make([]float32, len(c.W.Data)),
			dB:  make([]float32, c.OutC),
			dWs: tensor.New(c.OutC, rows),
		})
	}
	parts := c.parts[:len(chunks)]
	parallel.ForGrain(len(chunks), 1, func(clo, chi int) {
		for ci := clo; ci < chi; ci++ {
			pt := &parts[ci]
			if pt.dcols == nil || pt.dcols.Dim(1) != ncols {
				pt.dcols = tensor.New(rows, ncols)
			}
			clear(pt.dW)
			clear(pt.dB)
			for s := chunks[ci][0]; s < chunks[ci][1]; s++ {
				dout := tensor.FromSlice(dy.Data[s*c.OutC*ncols:(s+1)*c.OutC*ncols], c.OutC, ncols)
				// dW += dout · colsᵀ
				tensor.MatMulTransB(pt.dWs, dout, tensor.FromSlice(c.cols[s], rows, ncols))
				for i, v := range pt.dWs.Data {
					pt.dW[i] += v
				}
				// dB += row sums of dout
				for oc := 0; oc < c.OutC; oc++ {
					var acc float32
					row := dout.Data[oc*ncols : (oc+1)*ncols]
					for _, v := range row {
						acc += v
					}
					pt.dB[oc] += acc
				}
				// dcols = Wᵀ · dout, then col2im
				tensor.MatMulTransA(pt.dcols, wT, dout)
				tensor.Col2im(dx.Data[s*imgLen:(s+1)*imgLen], pt.dcols.Data, g)
			}
		}
	})
	for _, pt := range parts {
		for i, v := range pt.dW {
			c.W.Grad[i] += v
		}
		for i, v := range pt.dB {
			c.B.Grad[i] += v
		}
	}
	return dx
}
