package models

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"fftgrad/internal/nn"
	"fftgrad/internal/tensor"
)

func imageBatch(n int, seed int64) *tensor.Tensor {
	r := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 3, 32, 32)
	for i := range x.Data {
		x.Data[i] = float32(r.NormFloat64() * 0.5)
	}
	return x
}

// forwardBackward smoke-tests a full training step and returns the flat
// gradient for inspection.
func forwardBackward(t *testing.T, net *nn.Network, batch int) []float32 {
	t.Helper()
	x := imageBatch(batch, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 10
	}
	net.ZeroGrads()
	logits := net.Forward(x, true)
	if logits.Dim(0) != batch || logits.Dim(1) != 10 {
		t.Fatalf("logit shape %v", logits.Shape)
	}
	loss, dl := nn.SoftmaxCE{}.Loss(logits, labels)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss %g", loss)
	}
	net.Backward(dl)
	g := net.FlattenGrads(make([]float32, net.NumParams()))
	var nz int
	for _, v := range g {
		if v != v {
			t.Fatal("NaN gradient")
		}
		if v != 0 {
			nz++
		}
	}
	if nz < len(g)/10 {
		t.Fatalf("gradient mostly zero: %d/%d", nz, len(g))
	}
	return g
}

func TestAlexNetStyle(t *testing.T) {
	net := AlexNetStyle(10, 1, 42)
	forwardBackward(t, net, 4)
	// FC layers must dominate the parameter count (AlexNet structure).
	params := net.Params()
	var fc, conv int
	for _, p := range params {
		if len(p.Data) == 0 {
			continue
		}
		if p.Name[0] == 'd' {
			fc += len(p.Data)
		} else {
			conv += len(p.Data)
		}
	}
	if fc <= conv {
		t.Fatalf("AlexNet-style must be FC-heavy: fc=%d conv=%d", fc, conv)
	}
}

func TestMLP(t *testing.T) {
	net := MLP(32, 64, 10, 42)
	x := tensor.New(8, 32)
	r := rand.New(rand.NewSource(2))
	for i := range x.Data {
		x.Data[i] = float32(r.NormFloat64())
	}
	labels := make([]int, 8)
	net.ZeroGrads()
	logits := net.Forward(x, true)
	_, dl := nn.SoftmaxCE{}.Loss(logits, labels)
	net.Backward(dl)
}

// TestLocalStepAllocatesNothing is the allocation gate over the local step
// of the benchmark's two networks, the wide_* MLP and conv_fft's CNN, at
// batch 4: once the layers' buffers are built, ZeroGrads, Forward, the
// loss into its reused gradient and Backward allocate nothing.
func TestLocalStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	r := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name string
		net  *nn.Network
		x    *tensor.Tensor
	}{
		{"MLP", MLP(256, 560, 32, 1), tensor.New(4, 256)},
		{"AlexNetStyle", AlexNetStyle(10, 2, 1), tensor.New(4, 3, 32, 32)},
	} {
		for i := range c.x.Data {
			c.x.Data[i] = float32(r.NormFloat64())
		}
		labels := []int{0, 3, 6, 9}
		var dl *tensor.Tensor
		step := func() {
			c.net.ZeroGrads()
			_, dl = nn.SoftmaxCE{}.LossInto(dl, c.net.Forward(c.x, true), labels)
			c.net.Backward(dl)
		}
		for i := 0; i < 2; i++ { // build the buffers, warm the pools
			step()
		}
		gc := debug.SetGCPercent(-1) // a collection empties the scratch pools
		n := testing.AllocsPerRun(10, step)
		debug.SetGCPercent(gc)
		if n != 0 {
			t.Errorf("%s: a local step allocates %.2f allocs/op, want 0", c.name, n)
		}
	}
}

// TestSequentialKeepsInitialBits: a network's flat parameter vector holds,
// bit for bit, the values its layers drew from the seed on their own,
// outside any network.
func TestSequentialKeepsInitialBits(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for _, c := range []struct {
			name   string
			net    *nn.Network
			layers func(r *rand.Rand) []nn.Layer
		}{
			{"MLP", MLP(256, 560, 32, seed), func(r *rand.Rand) []nn.Layer {
				return []nn.Layer{nn.NewDense(256, 560, r), nn.NewDense(560, 560, r), nn.NewDense(560, 32, r)}
			}},
			{"TinyCNN", TinyCNN(10, 16, seed), func(r *rand.Rand) []nn.Layer {
				return []nn.Layer{nn.NewConv2D(3, 8, 3, 1, 1, r), nn.NewConv2D(8, 16, 3, 1, 1, r), nn.NewDense(16*4*4, 10, r)}
			}},
			{"AlexNetStyle", AlexNetStyle(10, 1, seed), func(r *rand.Rand) []nn.Layer {
				return []nn.Layer{nn.NewConv2D(3, 8, 5, 1, 2, r), nn.NewConv2D(8, 16, 5, 1, 2, r),
					nn.NewConv2D(16, 24, 3, 1, 1, r), nn.NewDense(24*4*4, 64, r), nn.NewDense(64, 10, r)}
			}},
		} {
			var want []float32
			for _, l := range c.layers(rand.New(rand.NewSource(seed))) {
				for _, p := range l.Params() {
					want = append(want, p.Data...)
				}
			}
			got := c.net.Data()
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d parameters, the layers alone %d", c.name, seed, len(got), len(want))
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s seed %d: parameter %d is %v, the layers alone drew %v", c.name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a := AlexNetStyle(10, 1, 7)
	b := AlexNetStyle(10, 1, 7)
	pa := a.GetParams(make([]float32, a.NumParams()))
	pb := b.GetParams(make([]float32, b.NumParams()))
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed must give identical init")
		}
	}
	c := AlexNetStyle(10, 1, 8)
	pc := c.GetParams(make([]float32, c.NumParams()))
	same := 0
	for i := range pa {
		if pa[i] == pc[i] {
			same++
		}
	}
	if same > len(pa)/2 {
		t.Fatal("different seeds should give different init")
	}
}

func TestAlexNetProfileMatchesPaper(t *testing.T) {
	p := AlexNetImageNetProfile()
	mb := float64(p.TotalGradBytes()) / (1 << 20)
	// The paper quotes ≈250 MB; the classic ungrouped AlexNet is ≈244 MB.
	if mb < 230 || mb > 260 {
		t.Fatalf("AlexNet gradient %f MB, expected ≈250", mb)
	}
	// FC layers must hold >90% of bytes while convs hold >80% of FLOPs.
	var fcBytes, convFLOPs float64
	for _, l := range p.Layers {
		if l.Name[0] == 'f' {
			fcBytes += float64(l.GradBytes())
		} else {
			convFLOPs += l.FLOPs
		}
	}
	if fcBytes/float64(p.TotalGradBytes()) < 0.9 {
		t.Fatalf("FC byte share %.2f", fcBytes/float64(p.TotalGradBytes()))
	}
	if convFLOPs/p.TotalFLOPs() < 0.8 {
		t.Fatalf("conv FLOP share %.2f", convFLOPs/p.TotalFLOPs())
	}
}

func TestResNet32ProfileShape(t *testing.T) {
	p := ResNet32CIFARProfile()
	// He et al. report ≈0.46M params for CIFAR ResNet-32.
	if p.TotalParams() < 400_000 || p.TotalParams() > 520_000 {
		t.Fatalf("ResNet32 params %d, expected ≈464k", p.TotalParams())
	}
	// Every layer's gradient must be small: max layer ≈ 64·64·9 ≈ 37k
	// params. That uniformity is what kills overlap.
	for _, l := range p.Layers {
		if l.ParamCount > 40_000 {
			t.Fatalf("layer %s unexpectedly large: %d", l.Name, l.ParamCount)
		}
	}
}
