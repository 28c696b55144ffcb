package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fftgrad/internal/tensor"
)

// convHalfF32 draws the values where the branch-free ReLU or the
// unrolled pool could part from the seed layers: ±0, subnormals, ±Inf,
// NaNs of both signs, ties (small integers) and normals.
func convHalfF32(r *rand.Rand) float32 {
	switch r.Intn(10) {
	case 0:
		return float32(math.Copysign(0, float64(r.Intn(2))-0.5))
	case 1:
		return math.Float32frombits(uint32(r.Int63n(1<<23)) | uint32(r.Intn(2))<<31)
	case 2:
		return float32(math.Inf(r.Intn(2)*2 - 1))
	case 3:
		return math.Float32frombits(0x7fc00000 | uint32(r.Intn(1<<10)) | uint32(r.Intn(2))<<31)
	case 4, 5:
		return float32(r.Intn(3) - 1)
	}
	return float32(r.NormFloat64())
}

// sameBits fails unless got and want hold the same float32 bit patterns.
// Where nan is set, two NaNs match whatever their payloads: which NaN a
// sum of two NaNs keeps depends on the order the compiler gives the
// operands, not on the algorithm.
func sameBits(t *testing.T, what string, got, want []float32, nan bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
		if g != w && !(nan && got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s: [%d] = %v (%#08x), want %v (%#08x)", what, i, got[i], g, want[i], w)
		}
	}
}

// checkReLU holds ReLU's forward output and input gradient to the seed
// layer's on x and dy, both of x's shape.
func checkReLU(t *testing.T, l *ReLU, x, dy *tensor.Tensor) {
	t.Helper()
	ref := &seedReLU{}
	sameBits(t, fmt.Sprintf("ReLU forward %v", x.Shape), l.Forward(x, true).Data, ref.Forward(x, true).Data, false)
	sameBits(t, fmt.Sprintf("ReLU backward %v", x.Shape), l.Backward(dy).Data, ref.Backward(dy).Data, false)
}

// checkPool holds MaxPool2D's output and input gradient to the seed
// layer's on x, with dy drawn by grad for the output's length.
func checkPool(t *testing.T, p *MaxPool2D, x *tensor.Tensor, grad func(int) []float32) {
	t.Helper()
	ref := &seedMaxPool2D{Size: p.Size, Stride: p.Stride}
	what := fmt.Sprintf("MaxPool2D(%d,s%d) %v", p.Size, p.Stride, x.Shape)
	y, wantY := p.Forward(x, true), ref.Forward(x, true)
	sameBits(t, what+" forward", y.Data, wantY.Data, false)
	dy := tensor.FromSlice(grad(y.Len()), y.Shape...)
	sameBits(t, what+" backward", p.Backward(dy).Data, ref.Backward(dy).Data, true)
}

func drawF32(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = convHalfF32(r)
	}
	return v
}

// TestConvHalfMatchesReference: ReLU on five shapes and MaxPool2D on
// every pooling geometry of small planes, each through one layer reused
// across shapes, on ±0, subnormals, ±Inf and NaN, compared on raw bits.
func TestConvHalfMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	relu := NewReLU()
	for _, shape := range [][]int{{1, 1}, {3, 7}, {2, 3, 5, 5}, {4, 16, 32, 32}, {1, 9}} {
		n := 1
		for _, d := range shape {
			n *= d
		}
		x := tensor.FromSlice(drawF32(r, n), shape...)
		checkReLU(t, relu, x, tensor.FromSlice(drawF32(r, n), shape...))
	}

	for _, ps := range [][2]int{{2, 2}, {2, 1}, {3, 2}, {3, 3}, {1, 1}, {2, 3}} {
		p := NewMaxPool2D(ps[0], ps[1])
		for _, hw := range [][2]int{{2, 2}, {4, 4}, {5, 7}, {8, 3}, {16, 16}} {
			if hw[0] < ps[0] || hw[1] < ps[0] {
				continue
			}
			n, c := 1+r.Intn(3), 1+r.Intn(3)
			x := tensor.FromSlice(drawF32(r, n*c*hw[0]*hw[1]), n, c, hw[0], hw[1])
			checkPool(t, p, x, func(m int) []float32 { return drawF32(r, m) })
		}
	}
}

// FuzzConvHalfMatchesReference: ReLU and MaxPool2D on arbitrary float32
// bit patterns at arbitrary small shapes and pooling geometries, against
// the seed layers.
func FuzzConvHalfMatchesReference(f *testing.F) {
	f.Add(uint8(2), uint8(5), uint8(5), uint8(1), uint8(1), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80})
	f.Add(uint8(1), uint8(4), uint8(7), uint8(2), uint8(2), []byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, c8, h8, w8, size8, s8 uint8, raw []byte) {
		c, h, w := 1+int(c8)%3, 1+int(h8)%12, 1+int(w8)%12
		word := func(i int) float32 {
			if len(raw) < 4 {
				return float32(i%5) - 2
			}
			j := (4 * i) % (len(raw) &^ 3)
			return math.Float32frombits(binary.LittleEndian.Uint32(raw[j:]))
		}
		words := func(off, n int) []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = word(off + i)
			}
			return v
		}
		x := tensor.FromSlice(words(0, c*h*w), 1, c, h, w)
		checkReLU(t, NewReLU(), x, tensor.FromSlice(words(7, x.Len()), x.Shape...))
		if size := 1 + int(size8)%3; size <= h && size <= w {
			checkPool(t, NewMaxPool2D(size, 1+int(s8)%3), x, func(m int) []float32 { return words(3, m) })
		}
	})
}

// Every layer's Backward rejects a gradient whose shape is not the one
// its last Forward returned, naming the layer, and a Backward before any
// Forward.
func TestBackwardRejectsWrongShape(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	x4 := randInput(r, 2, 2, 6, 6)
	cases := []struct {
		name  string
		layer Layer
		x     *tensor.Tensor
	}{
		{"conv(2→3,k3,s1,p1)", NewConv2D(2, 3, 3, 1, 1, r), x4},
		{"relu", NewReLU(), x4},
		{"maxpool(2,s2)", NewMaxPool2D(2, 0), x4},
		{"flatten", NewFlatten(), x4},
		{"dense(5→4)", NewDense(5, 4, r), randInput(r, 3, 5)},
	}
	backward := func(t *testing.T, want string, l Layer, dy *tensor.Tensor) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Fatalf("Backward(dy %v) panicked with %q, want a panic naming %s", dy.Shape, msg, want)
			}
		}()
		l.Backward(dy)
	}
	for _, c := range cases {
		backward(t, c.name, c.layer, randInput(r, 1, 4))
		y := c.layer.Forward(c.x, true)
		n := y.Len() / y.Dim(0)
		backward(t, c.name, c.layer, randInput(r, y.Dim(0)+1, n))            // wrong batch
		backward(t, c.name, c.layer, randInput(r, y.Dim(0), n+1))            // wrong width
		backward(t, c.name, c.layer, randInput(r, y.Len()))                  // right length, wrong shape
		c.layer.Backward(tensor.FromSlice(slices.Clone(y.Data), y.Shape...)) // the right shape passes
	}
}

// TestLayerOutputsCarryNothing extends TestBackwardScratchReuse to the
// outputs the layers own: over training steps at batches 3, 1 and 3, each
// followed by an eval Forward of another batch, every logit and gradient
// equals what a fresh network computes for the same call.
func TestLayerOutputsCarryNothing(t *testing.T) {
	build := func() *Network {
		r := rand.New(rand.NewSource(12))
		return Sequential(
			NewConv2D(2, 4, 3, 1, 1, r),
			NewReLU(),
			NewMaxPool2D(2, 0),
			NewConv2D(4, 3, 3, 2, 1, r),
			NewReLU(),
			NewFlatten(),
			NewDense(3*2*2, 5, r),
			NewReLU(),
			NewDense(5, 3, r),
		)
	}
	step := func(net *Network, x *tensor.Tensor, labels []int) (logits, grads []float32) {
		net.ZeroGrads()
		out := net.Forward(x, true)
		logits = slices.Clone(out.Data)
		_, dl := SoftmaxCE{}.Loss(out, labels)
		net.Backward(dl)
		return logits, net.FlattenGrads(make([]float32, net.NumParams()))
	}
	same := func(what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: [%d] is %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	r := rand.New(rand.NewSource(14))
	batches := []*tensor.Tensor{randInput(r, 3, 2, 6, 6), randInput(r, 1, 2, 6, 6), randInput(r, 3, 2, 6, 6)}
	labels := [][]int{{0, 1, 2}, {1}, {2, 2, 0}}
	net := build()
	for i, x := range batches {
		gotL, gotG := step(net, x, labels[i])
		wantL, wantG := step(build(), x, labels[i])
		same(fmt.Sprintf("step %d logits", i), gotL, wantL)
		same(fmt.Sprintf("step %d grads", i), gotG, wantG)
		ev := batches[(i+1)%len(batches)]
		same(fmt.Sprintf("eval after step %d", i), net.Forward(ev, false).Data, build().Forward(ev, false).Data)
	}
}

// BenchmarkConvLayers times the conv_fft network's conv, ReLU and pool
// layers (AlexNetStyle at scale 2, batch 4) forward and backward. Run it
// at -cpu 1: the layers split samples and planes across workers.
func BenchmarkConvLayers(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	stages := []struct {
		name  string
		layer Layer
		shape []int
	}{
		{"conv1", NewConv2D(3, 16, 5, 1, 2, r), []int{4, 3, 32, 32}},
		{"relu1", NewReLU(), []int{4, 16, 32, 32}},
		{"pool1", NewMaxPool2D(2, 0), []int{4, 16, 32, 32}},
		{"conv2", NewConv2D(16, 32, 5, 1, 2, r), []int{4, 16, 16, 16}},
		{"relu2", NewReLU(), []int{4, 32, 16, 16}},
		{"pool2", NewMaxPool2D(2, 0), []int{4, 32, 16, 16}},
		{"conv3", NewConv2D(32, 48, 3, 1, 1, r), []int{4, 32, 8, 8}},
		{"relu3", NewReLU(), []int{4, 48, 8, 8}},
		{"pool3", NewMaxPool2D(2, 0), []int{4, 48, 8, 8}},
	}
	for _, st := range stages {
		x := randInput(r, st.shape...)
		y := st.layer.Forward(x, true)
		dy := randInput(r, y.Shape...)
		b.Run(st.name+"/fwd", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.layer.Forward(x, true)
			}
		})
		b.Run(st.name+"/bwd", func(b *testing.B) {
			b.ReportAllocs()
			st.layer.Forward(x, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.layer.Backward(dy)
			}
		})
	}
}
