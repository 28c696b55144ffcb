package nn

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fftgrad/internal/tensor"
)

func randInput(r *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(r.NormFloat64())
	}
	return t
}

func TestDenseForwardKnown(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := NewDense(2, 3, r)
	copy(d.W.Data, []float32{1, 2, 3, 4, 5, 6}) // W [3x2]
	copy(d.B.Data, []float32{0.1, 0.2, 0.3})
	x := tensor.FromSlice([]float32{1, 1, 2, -1}, 2, 2)
	y := d.Forward(x, true)
	// row0: [1+2, 3+4, 5+6] + b = [3.1, 7.2, 11.3]
	// row1: [2-2, 6-4, 10-6] + b = [0.1, 2.2, 4.3]
	want := []float32{3.1, 7.2, 11.3, 0.1, 2.2, 4.3}
	for i := range want {
		if math.Abs(float64(y.Data[i]-want[i])) > 1e-5 {
			t.Fatalf("y[%d]=%g want %g", i, y.Data[i], want[i])
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU()
	x := tensor.FromSlice([]float32{-1, 0, 2, -3, 4, 0.5}, 2, 3)
	y := l.Forward(x, true)
	want := []float32{0, 0, 2, 0, 4, 0.5}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("relu fwd[%d]=%g", i, y.Data[i])
		}
	}
	dy := tensor.FromSlice([]float32{1, 1, 1, 1, 1, 1}, 2, 3)
	dx := l.Backward(dy)
	wantDx := []float32{0, 0, 1, 0, 1, 1}
	for i := range wantDx {
		if dx.Data[i] != wantDx[i] {
			t.Fatalf("relu bwd[%d]=%g", i, dx.Data[i])
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2D(2, 0)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 3,
		4, 0, 1, 2,
		0, 1, 9, 8,
		3, 2, 7, 6,
	}, 1, 1, 4, 4)
	y := p.Forward(x, true)
	want := []float32{4, 5, 3, 9}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("pool fwd[%d]=%g want %g", i, y.Data[i], want[i])
		}
	}
	dy := tensor.FromSlice([]float32{10, 20, 30, 40}, 1, 1, 2, 2)
	dx := p.Backward(dy)
	// gradient lands on the argmax positions: 4@(1,0), 5@(0,2), 3@(3,0), 9@(2,2)
	checks := map[int]float32{4: 10, 2: 20, 12: 30, 10: 40}
	for idx, v := range dx.Data {
		if want, ok := checks[idx]; ok {
			if v != want {
				t.Fatalf("pool bwd[%d]=%g want %g", idx, v, want)
			}
		} else if v != 0 {
			t.Fatalf("pool bwd[%d]=%g want 0", idx, v)
		}
	}
}

func TestSoftmaxCEKnown(t *testing.T) {
	// Uniform logits: loss = log(C), gradient = (1/C - onehot)/N.
	logits := tensor.FromSlice([]float32{0, 0, 0, 0}, 1, 4)
	loss, dl := SoftmaxCE{}.Loss(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss %g want %g", loss, math.Log(4))
	}
	for j := 0; j < 4; j++ {
		want := 0.25
		if j == 2 {
			want = 0.25 - 1
		}
		if math.Abs(float64(dl.Data[j])-want) > 1e-6 {
			t.Fatalf("dlogits[%d]=%g want %g", j, dl.Data[j], want)
		}
	}
}

func TestSoftmaxCEGradientSumsToZero(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	logits := randInput(r, 8, 10)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = r.Intn(10)
	}
	_, dl := SoftmaxCE{}.Loss(logits, labels)
	for i := 0; i < 8; i++ {
		var sum float64
		for j := 0; j < 10; j++ {
			sum += float64(dl.Data[i*10+j])
		}
		if math.Abs(sum) > 1e-5 {
			t.Fatalf("row %d gradient sums to %g", i, sum)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 5, 0,
		9, 1, 2,
		0, 0, 7,
	}, 3, 3)
	if got := Accuracy(logits, []int{1, 0, 2}); got != 1 {
		t.Fatalf("accuracy %g want 1", got)
	}
	if got := Accuracy(logits, []int{0, 0, 2}); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("accuracy %g want 2/3", got)
	}
}

// TestLabelCountChecked: the loss and the accuracy both refuse a label
// slice that does not match the batch, naming the mismatch, instead of
// dying on a bare index.
func TestLabelCountChecked(t *testing.T) {
	logits := tensor.New(3, 4)
	for name, f := range map[string]func(){
		"Loss":     func() { SoftmaxCE{}.Loss(logits, []int{0, 1}) },
		"LossInto": func() { SoftmaxCE{}.LossInto(nil, logits, []int{0, 1, 2, 3}) },
		"Accuracy": func() { Accuracy(logits, []int{0, 1}) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "labels for batch of 3") {
					t.Errorf("%s: panic %q, want the label count named", name, msg)
				}
			}()
			f()
		}()
	}
}

// TestLossIntoMatchesLoss: LossInto writes the gradient Loss returns, bit
// for bit, whatever its reused buffer held, through a batch that shrinks
// and grows again, and it keeps a buffer that is large enough.
func TestLossIntoMatchesLoss(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var dl *tensor.Tensor
	for _, n := range []int{3, 1, 3} {
		logits := randInput(r, n, 5)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(5)
		}
		prev := dl
		if dl != nil {
			for i := range dl.Data {
				dl.Data[i] = float32(math.NaN())
			}
		}
		var got float64
		got, dl = SoftmaxCE{}.LossInto(dl, logits, labels)
		want, wantDL := SoftmaxCE{}.Loss(logits, labels)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("batch %d: loss %v, Loss gives %v", n, got, want)
		}
		if !slices.Equal(dl.Shape, wantDL.Shape) {
			t.Fatalf("batch %d: gradient shape %v, Loss gives %v", n, dl.Shape, wantDL.Shape)
		}
		for i, v := range wantDL.Data {
			if math.Float32bits(dl.Data[i]) != math.Float32bits(v) {
				t.Fatalf("batch %d: gradient %d is %v, Loss gives %v", n, i, dl.Data[i], v)
			}
		}
		if prev != nil && dl != prev {
			t.Fatalf("batch %d: a large enough buffer was replaced", n)
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	l := NewFlatten()
	x := randInput(r, 2, 3, 4, 5)
	y := l.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dx := l.Backward(y)
	if !slices.Equal(dx.Shape, x.Shape) {
		t.Fatalf("unflatten shape %v", dx.Shape)
	}
}

func TestFlatGradientLinearization(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	net := Sequential(
		NewDense(10, 8, r),
		NewReLU(),
		NewDense(8, 3, r),
	)
	n := net.NumParams()
	if n != 10*8+8+8*3+3 {
		t.Fatalf("NumParams %d", n)
	}
	x := randInput(r, 4, 10)
	labels := []int{0, 1, 2, 1}
	net.ZeroGrads()
	logits := net.Forward(x, true)
	_, dl := SoftmaxCE{}.Loss(logits, labels)
	net.Backward(dl)

	flat := net.FlattenGrads(make([]float32, n))
	// Flat order must match Params order.
	off := 0
	for _, p := range net.Params() {
		for i := range p.Grad {
			if flat[off+i] != p.Grad[i] {
				t.Fatalf("flat grad mismatch at param %s idx %d", p.Name, i)
			}
		}
		off += len(p.Grad)
	}

	// AddToParams round-trips with GetParams/SetParams.
	before := net.GetParams(make([]float32, n))
	delta := make([]float32, n)
	for i := range delta {
		delta[i] = 0.5
	}
	net.AddToParams(delta)
	after := net.GetParams(make([]float32, n))
	for i := range after {
		if math.Abs(float64(after[i]-before[i]-0.5)) > 1e-6 {
			t.Fatalf("AddToParams wrong at %d", i)
		}
	}
	net.SetParams(before)
	restored := net.GetParams(make([]float32, n))
	for i := range restored {
		if restored[i] != before[i] {
			t.Fatalf("SetParams wrong at %d", i)
		}
	}
}

// lossOf runs the full forward and returns the loss on a fixed batch.
func lossOf(net *Network, x *tensor.Tensor, labels []int) float64 {
	logits := net.Forward(x, true)
	loss, _ := SoftmaxCE{}.Loss(logits, labels)
	return loss
}

// gradCheck compares analytic flat gradients against central differences
// on a random subset of parameters. Perturbing a parameter can flip a
// max-pool argmax or a ReLU sign, which makes the numeric derivative
// arbitrarily wrong at isolated kink points; a genuine backward bug would
// shift *most* parameters, so the check allows a small fraction of
// outliers rather than requiring every sample to match.
func gradCheck(t *testing.T, net *Network, x *tensor.Tensor, labels []int, samples int, tol float64) {
	t.Helper()
	n := net.NumParams()
	net.ZeroGrads()
	logits := net.Forward(x, true)
	_, dl := SoftmaxCE{}.Loss(logits, labels)
	net.Backward(dl)
	analytic := net.FlattenGrads(make([]float32, n))

	params := net.GetParams(make([]float32, n))
	r := rand.New(rand.NewSource(99))
	const h = 1e-2
	outliers := 0
	for s := 0; s < samples; s++ {
		i := r.Intn(n)
		orig := params[i]
		params[i] = orig + h
		net.SetParams(params)
		lp := lossOf(net, x, labels)
		params[i] = orig - h
		net.SetParams(params)
		lm := lossOf(net, x, labels)
		params[i] = orig
		net.SetParams(params)

		numeric := (lp - lm) / (2 * h)
		a := float64(analytic[i])
		denom := math.Max(math.Abs(numeric)+math.Abs(a), 1e-4)
		if rel := math.Abs(numeric-a) / denom; rel > tol {
			outliers++
			t.Logf("param %d: analytic %g numeric %g (rel %g)", i, a, numeric, rel)
		}
	}
	if outliers > samples/10 {
		t.Errorf("%d/%d samples exceeded tolerance %g", outliers, samples, tol)
	}
}

func TestGradCheckDenseNet(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	net := Sequential(
		NewDense(6, 12, r),
		NewReLU(),
		NewDense(12, 4, r),
	)
	x := randInput(r, 5, 6)
	labels := []int{0, 1, 2, 3, 1}
	gradCheck(t, net, x, labels, 60, 0.05)
}

func TestGradCheckConvNet(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	net := Sequential(
		NewConv2D(2, 4, 3, 1, 1, r),
		NewReLU(),
		NewMaxPool2D(2, 0),
		NewFlatten(),
		NewDense(4*3*3, 3, r),
	)
	x := randInput(r, 3, 2, 6, 6)
	labels := []int{0, 1, 2}
	gradCheck(t, net, x, labels, 50, 0.08)
}

// A small dense net must actually learn a separable problem — sanity check
// that forward/backward/update compose into working SGD.
func TestLearningSanity(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	net := Sequential(
		NewDense(2, 16, r),
		NewReLU(),
		NewDense(16, 2, r),
	)
	n := net.NumParams()
	grad := make([]float32, n)
	delta := make([]float32, n)

	// XOR-ish separable data.
	batch := 64
	x := tensor.New(batch, 2)
	labels := make([]int, batch)
	newBatch := func() {
		for i := 0; i < batch; i++ {
			a, b := r.Float64()*2-1, r.Float64()*2-1
			x.Data[2*i], x.Data[2*i+1] = float32(a), float32(b)
			if a*b > 0 {
				labels[i] = 1
			}
		}
	}
	var loss float64
	for iter := 0; iter < 300; iter++ {
		newBatch()
		net.ZeroGrads()
		logits := net.Forward(x, true)
		loss, _ = SoftmaxCE{}.Loss(logits, labels)
		_, dl := SoftmaxCE{}.Loss(logits, labels)
		net.Backward(dl)
		net.FlattenGrads(grad)
		for i := range delta {
			delta[i] = -0.2 * grad[i]
		}
		net.AddToParams(delta)
	}
	if loss > 0.35 {
		t.Fatalf("net failed to learn XOR: final loss %g", loss)
	}
}

func BenchmarkConvForward(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	conv := NewConv2D(16, 32, 3, 1, 1, r)
	x := randInput(r, 8, 16, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
	}
}

func BenchmarkConvBackward(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	conv := NewConv2D(16, 32, 3, 1, 1, r)
	x := randInput(r, 8, 16, 16, 16)
	y := conv.Forward(x, true)
	dy := tensor.FromSlice(slices.Clone(y.Data), y.Shape...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Backward(dy)
	}
}

// Overlapping max-pool windows (stride < size) must route gradients to
// shared argmax positions additively.
func TestMaxPoolOverlappingWindows(t *testing.T) {
	p := NewMaxPool2D(2, 1) // 2x2 windows, stride 1
	x := tensor.FromSlice([]float32{
		1, 2, 1,
		2, 9, 2, // the 9 is the max of all four windows
		1, 2, 1,
	}, 1, 1, 3, 3)
	y := p.Forward(x, true)
	for i, v := range y.Data {
		if v != 9 {
			t.Fatalf("window %d max %g want 9", i, v)
		}
	}
	dy := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	dx := p.Backward(dy)
	if dx.Data[4] != 4 { // center receives all four gradients
		t.Fatalf("shared argmax gradient %g want 4", dx.Data[4])
	}
	var rest float32
	for i, v := range dx.Data {
		if i != 4 {
			rest += v
		}
	}
	if rest != 0 {
		t.Fatalf("gradient leaked to non-argmax positions: %g", rest)
	}
}

// Backward's reused scratch carries nothing between calls: the same
// batch gives the same gradients twice, and a batch of one after a batch
// of three gives the gradients a fresh network gives.
func TestBackwardScratchReuse(t *testing.T) {
	build := func() *Network {
		r := rand.New(rand.NewSource(12))
		return Sequential(
			NewConv2D(2, 4, 3, 1, 1, r),
			NewReLU(),
			NewMaxPool2D(2, 0),
			NewFlatten(),
			NewDense(4*3*3, 3, r),
		)
	}
	grads := func(net *Network, x *tensor.Tensor, labels []int) []float32 {
		net.ZeroGrads()
		_, dl := SoftmaxCE{}.Loss(net.Forward(x, true), labels)
		net.Backward(dl)
		return net.FlattenGrads(make([]float32, net.NumParams()))
	}
	same := func(what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: grad %d is %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	r := rand.New(rand.NewSource(13))
	x3, x1 := randInput(r, 3, 2, 6, 6), randInput(r, 1, 2, 6, 6)
	net := build()
	first := grads(net, x3, []int{0, 1, 2})
	same("second pass", grads(net, x3, []int{0, 1, 2}), first)
	same("batch of one after three", grads(net, x1, []int{1}), grads(build(), x1, []int{1}))
}

// A window that is all NaN or all -Inf has no element above -Inf. Its
// argmax must still be in the window: Forward passes NaN and -Inf through
// and Backward routes each window's gradient to its first element.
func TestMaxPoolNaNAndNegInfPlanes(t *testing.T) {
	for _, fill := range []float32{float32(math.NaN()), float32(math.Inf(-1))} {
		x := tensor.New(1, 1, 2, 2)
		for i := range x.Data {
			x.Data[i] = fill
		}
		p := NewMaxPool2D(2, 0)
		y := p.Forward(x, true)
		if got := y.Data[0]; math.Float32bits(got) != math.Float32bits(fill) && !(got != got && fill != fill) {
			t.Fatalf("plane of %v: pooled %v", fill, got)
		}
		dx := p.Backward(tensor.FromSlice([]float32{3}, 1, 1, 1, 1))
		if want := []float32{3, 0, 0, 0}; !slices.Equal(dx.Data, want) {
			t.Fatalf("plane of %v: dx %v, want %v", fill, dx.Data, want)
		}
	}
}

// Dense must reject inputs whose flattened width disagrees with In.
func TestDenseWidthMismatchPanics(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	d := NewDense(10, 4, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Forward(randInput(r, 2, 9), true)
}
