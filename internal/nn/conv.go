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

	geom  tensor.ConvGeom // geometry of the cached input
	wT    *tensor.Tensor  // W.Data as an [OutC × InC·K·K] matrix
	smp   []convSample    // per-sample state, kept for Backward
	y, dx *tensor.Tensor  // the layer's output and input gradient
	parts []convPart      // Backward's per-chunk scratch, reused
}

// convSample is one sample's Forward state: its im2col columns, which
// Backward reads again, and its window of the output as a matrix.
type convSample struct{ cols, out *tensor.Tensor }

// convPart is one Backward chunk's scratch: its partial weight and bias
// gradients, the two per-sample products it computes them from, and the
// view of the sample's output gradient it is working on.
type convPart struct {
	dW, dB           []float32
	dWs, dcols, dout *tensor.Tensor
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

func (c *Conv2D) name() string {
	return fmt.Sprintf("conv(%d→%d,k%d,s%d,p%d)", c.InC, c.OutC, c.Kernel, c.Stride, c.Pad)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// Forward implements Layer. x is [N, InC, H, W].
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if ch != c.InC {
		panic(fmt.Sprintf("nn: %s got %d input channels", c.name(), ch))
	}
	c.geom = tensor.ConvGeom{InC: ch, InH: h, InW: w, Kernel: c.Kernel, Stride: c.Stride, Pad: c.Pad}
	c.y = reuse(c.y, n, c.OutC, c.geom.OutH(), c.geom.OutW())
	c.wT = view(c.wT, c.W.Data, c.OutC, ch*c.Kernel*c.Kernel)
	for len(c.smp) < n {
		c.smp = append(c.smp, convSample{})
	}
	parallel.ForGrain2(n, 1, c, x.Data, convForward)
	return c.y
}

// convForward runs samples [lo, hi) of Forward: im2col into the sample's
// cached columns, the product with the weights, then the bias. Each
// sample's headers are its own, so pool goroutines never share one.
func convForward(c *Conv2D, x []float32, lo, hi int) {
	g := c.geom
	rows, ncols := g.InC*c.Kernel*c.Kernel, g.OutH()*g.OutW()
	imgLen, outLen := g.InC*g.InH*g.InW, c.OutC*ncols
	for s := lo; s < hi; s++ {
		sm := &c.smp[s]
		if sm.cols == nil || sm.cols.Dim(1) != ncols {
			sm.cols = tensor.New(rows, ncols)
		}
		tensor.Im2col(sm.cols.Data, x[s*imgLen:(s+1)*imgLen], g)
		sm.out = view(sm.out, c.y.Data[s*outLen:(s+1)*outLen], c.OutC, ncols)
		tensor.MatMul(sm.out, c.wT, sm.cols)
		// add bias per output channel
		for oc, b := range c.B.Data {
			row := sm.out.Data[oc*ncols : (oc+1)*ncols]
			for i := range row {
				row[i] += b
			}
		}
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkGrad(c, c.y, dy)
	g := c.geom
	n := dy.Dim(0)
	c.dx = reuse(c.dx, n, g.InC, g.InH, g.InW)

	// Per-worker partial dW/dB accumulators avoid write contention.
	chunks, size := parallel.Plan(n, 1)
	for len(c.parts) < chunks {
		c.parts = append(c.parts, convPart{
			dW:  make([]float32, len(c.W.Data)),
			dB:  make([]float32, c.OutC),
			dWs: tensor.New(c.OutC, g.InC*c.Kernel*c.Kernel),
		})
	}
	parallel.ForGrain3(chunks, 1, c, dy.Data, size, convBackward)
	dW, dB := c.W.grad(), c.B.grad()
	for _, pt := range c.parts[:chunks] {
		for i, v := range pt.dW {
			dW[i] += v
		}
		for i, v := range pt.dB {
			dB[i] += v
		}
	}
	return c.dx
}

// convBackward runs chunks [clo, chi) of Backward, each over its samples
// of a Plan(n, 1) partition of the given size: the chunk's partial dW and
// dB, and each sample's dx through Wᵀ·dout and col2im.
func convBackward(c *Conv2D, dy []float32, size, clo, chi int) {
	g := c.geom
	n := c.y.Dim(0)
	rows, ncols := g.InC*c.Kernel*c.Kernel, g.OutH()*g.OutW()
	imgLen, outLen := g.InC*g.InH*g.InW, c.OutC*ncols
	for ci := clo; ci < chi; ci++ {
		pt := &c.parts[ci]
		if pt.dcols == nil || pt.dcols.Dim(1) != ncols {
			pt.dcols = tensor.New(rows, ncols)
		}
		clear(pt.dW)
		clear(pt.dB)
		lo, hi := parallel.ChunkBounds(ci, size, n)
		for s := lo; s < hi; s++ {
			dout := view(pt.dout, dy[s*outLen:(s+1)*outLen], c.OutC, ncols)
			pt.dout = dout
			// dW += dout · colsᵀ
			tensor.MatMulTransB(pt.dWs, dout, c.smp[s].cols)
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
			// dcols = Wᵀ · dout, then col2im into the cleared sample
			tensor.MatMulTransA(pt.dcols, c.wT, dout)
			dx := c.dx.Data[s*imgLen : (s+1)*imgLen]
			clear(dx)
			tensor.Col2im(dx, pt.dcols.Data, g)
		}
	}
}
