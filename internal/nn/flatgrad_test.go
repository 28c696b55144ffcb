package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fftgrad/internal/tensor"
)

// TestFlatGradientView: every parameter's Grad is its window of the
// network's flat gradient, in Params order; Backward lands in the view,
// FlattenGrads copies it bit for bit, a second Backward without ZeroGrads
// adds to it and ZeroGrads clears it.
func TestFlatGradientView(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	net := Sequential(
		NewConv2D(2, 3, 3, 1, 1, r),
		NewReLU(),
		NewFlatten(),
		NewDense(3*4*4, 5, r),
		NewReLU(),
		NewDense(5, 3, r),
	)
	flat := net.Grad()
	if len(flat) != net.NumParams() {
		t.Fatalf("Grad has %d values, NumParams %d", len(flat), net.NumParams())
	}
	off := 0
	for _, p := range net.Params() {
		if len(p.Grad) != len(p.Data) || cap(p.Grad) != len(p.Data) || &p.Grad[0] != &flat[off] {
			t.Fatalf("%s: Grad (len %d, cap %d) is not the window [%d, %d) of the flat gradient",
				p.Name, len(p.Grad), cap(p.Grad), off, off+len(p.Data))
		}
		off += len(p.Data)
	}
	if off != len(flat) {
		t.Fatalf("the windows cover %d of %d values", off, len(flat))
	}

	x, labels := randInput(r, 2, 2, 4, 4), []int{0, 2}
	step := func() {
		_, dl := SoftmaxCE{}.Loss(net.Forward(x, true), labels)
		net.Backward(dl)
	}
	net.ZeroGrads()
	step()
	one := slices.Clone(flat)
	if !slices.ContainsFunc(one, func(v float32) bool { return v != 0 }) {
		t.Fatal("Backward left the flat gradient zero")
	}
	sameBits(t, "FlattenGrads", net.FlattenGrads(make([]float32, len(flat))), flat, false)

	step()
	for i, g := range one {
		if d := math.Abs(float64(flat[i] - 2*g)); d > 1e-5*(math.Abs(float64(g))+1e-3) {
			t.Fatalf("second Backward: grad %d is %v, want about 2×%v", i, flat[i], g)
		}
	}

	net.ZeroGrads()
	for i, v := range flat {
		if math.Float32bits(v) != 0 {
			t.Fatalf("ZeroGrads left grad %d at %v", i, v)
		}
	}
}

// TestFlatParameterView: every parameter's Data is its window of the
// network's flat parameter vector, in Params order and capped so an
// append cannot spill into the next parameter; the initial values are
// the layers' own, and SetParams, GetParams and AddToParams go through
// the vector.
func TestFlatParameterView(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	layers := []Layer{NewConv2D(2, 3, 3, 1, 1, r), NewReLU(), NewFlatten(), NewDense(3*4*4, 5, r)}
	var init []float32
	for _, l := range layers {
		for _, p := range l.Params() {
			init = append(init, p.Data...)
		}
	}
	net := Sequential(layers...)
	flat := net.Data()
	if len(flat) != net.NumParams() {
		t.Fatalf("Data has %d values, NumParams %d", len(flat), net.NumParams())
	}
	sameBits(t, "initial parameters", flat, init, false)
	off := 0
	for _, p := range net.Params() {
		if cap(p.Data) != len(p.Data) || &p.Data[0] != &flat[off] {
			t.Fatalf("%s: Data (len %d, cap %d) is not the window [%d, %d) of the flat vector",
				p.Name, len(p.Data), cap(p.Data), off, off+len(p.Data))
		}
		off += len(p.Data)
	}
	if off != len(flat) {
		t.Fatalf("the windows cover %d of %d values", off, len(flat))
	}

	n := len(flat)
	src, delta := make([]float32, n), make([]float32, n)
	for i := range src {
		src[i], delta[i] = float32(r.NormFloat64()), float32(r.NormFloat64())
	}
	net.SetParams(src)
	sameBits(t, "SetParams", flat, src, false)
	sameBits(t, "GetParams", net.GetParams(make([]float32, n)), src, false)
	net.AddToParams(delta)
	for i := range src {
		src[i] += delta[i]
	}
	sameBits(t, "AddToParams", flat, src, false)
	flat[n-1] = 42
	if last := net.Params()[len(net.Params())-1]; last.Data[len(last.Data)-1] != 42 {
		t.Fatal("a write to Data did not reach the parameter")
	}
}

// The flat helpers check a vector's length before they write: a long or
// short one panics with every parameter (and the destination of
// FlattenGrads and GetParams) bit for bit as it was.
func TestFlatHelpersCheckFirst(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	net := Sequential(NewDense(4, 3, r), NewReLU(), NewDense(3, 2, r))
	n := net.NumParams()
	before := net.GetParams(make([]float32, n))
	mustPanic := func(what string, f func()) {
		t.Helper()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", what)
				}
			}()
			f()
		}()
		sameBits(t, what+": parameters", net.GetParams(make([]float32, n)), before, false)
	}
	for _, m := range []int{0, n - 1, n + 1} {
		v := make([]float32, m)
		for i := range v {
			v[i] = 7
		}
		mustPanic(fmt.Sprintf("AddToParams(len %d)", m), func() { net.AddToParams(v) })
		mustPanic(fmt.Sprintf("SetParams(len %d)", m), func() { net.SetParams(v) })
		mustPanic(fmt.Sprintf("FlattenGrads(len %d)", m), func() { net.FlattenGrads(v) })
		mustPanic(fmt.Sprintf("GetParams(len %d)", m), func() { net.GetParams(v) })
		for i, x := range v {
			if x != 7 {
				t.Fatalf("FlattenGrads or GetParams (len %d) wrote %v at %d before panicking", m, x, i)
			}
		}
	}
}

// TestDenseBackwardMatchesReference holds Dense's in-place backward pass
// to the seed's scratch-then-fold one, from zeroed gradients, on the
// dense shapes of the wide_* and conv_fft networks at batch 4, with ±0,
// subnormals, ±Inf and NaN in dy: the input gradient and W.Grad/B.Grad
// on raw bits. Step 0 runs the layer on its own, later steps inside a
// network, so both the layer's own gradient and the network's window (a
// moved view) are covered. The default build checks the platform's
// kernel set and -tags purego the Go one.
func TestDenseBackwardMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for _, s := range [][2]int{{256, 560}, {560, 560}, {560, 32}, {768, 128}, {128, 10}} {
		in, out := s[0], s[1]
		d := NewDense(in, out, r)
		ref := &seedDense{In: in, Out: out,
			W: &Param{Data: d.W.Data, Grad: make([]float32, in*out)},
			B: &Param{Data: d.B.Data, Grad: make([]float32, out)}}
		for i := range d.B.Data {
			d.B.Data[i] = float32(r.NormFloat64())
		}
		for step := 0; step < 3; step++ {
			if step == 1 {
				Sequential(d)
			}
			clear(d.W.Grad)
			clear(d.B.Grad)
			clear(ref.W.Grad)
			clear(ref.B.Grad)
			x := tensor.New(4, in)
			for i := range x.Data {
				if x.Data[i] = float32(r.NormFloat64()); r.Intn(3) == 0 {
					x.Data[i] = float32(math.Copysign(0, float64(r.Intn(2))-0.5))
				}
			}
			dy := tensor.FromSlice(drawF32(r, 4*out), 4, out)
			what := fmt.Sprintf("dense(%d→%d) step %d", in, out, step)
			sameBits(t, what+" y", d.Forward(x, true).Data, ref.Forward(x, true).Data, false)
			sameBits(t, what+" dx", d.Backward(dy).Data, ref.Backward(dy).Data, false)
			sameBits(t, what+" W.Grad", d.W.Grad, ref.W.Grad, false)
			sameBits(t, what+" B.Grad", d.B.Grad, ref.B.Grad, false)
		}
	}
}

// BenchmarkMLPStep times the local step of the wide_* workloads' model,
// MLP(256, 560, 32) at batch 4: ZeroGrads, Forward, the loss and
// Backward. Run it at -cpu 1: the products split rows across workers.
func BenchmarkMLPStep(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	benchStep(b, Sequential(
		NewDense(256, 560, r),
		NewReLU(),
		NewDense(560, 560, r),
		NewReLU(),
		NewDense(560, 32, r),
	), randInput(r, 4, 256), []int{0, 7, 19, 31})
}

// BenchmarkConvStep is BenchmarkMLPStep for conv_fft's model, the
// AlexNet-style CNN at scale 2 (models.AlexNetStyle(10, 2)), at batch 4.
func BenchmarkConvStep(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	benchStep(b, Sequential(
		NewConv2D(3, 16, 5, 1, 2, r),
		NewReLU(),
		NewMaxPool2D(2, 0),
		NewConv2D(16, 32, 5, 1, 2, r),
		NewReLU(),
		NewMaxPool2D(2, 0),
		NewConv2D(32, 48, 3, 1, 1, r),
		NewReLU(),
		NewMaxPool2D(2, 0),
		NewFlatten(),
		NewDense(48*4*4, 128, r),
		NewReLU(),
		NewDense(128, 10, r),
	), randInput(r, 4, 3, 32, 32), []int{0, 3, 6, 9})
}

// benchStep times the local step of net on one batch, the loss gradient
// reused as the training loop reuses it, from the second step on: the
// first builds the layers' buffers.
func benchStep(b *testing.B, net *Network, x *tensor.Tensor, labels []int) {
	var dl *tensor.Tensor
	step := func() {
		net.ZeroGrads()
		_, dl = SoftmaxCE{}.LossInto(dl, net.Forward(x, true), labels)
		net.Backward(dl)
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
