package checkpoint

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fftgrad/internal/models"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/tensor"
)

func randState(n int, seed int64) *State {
	r := rand.New(rand.NewSource(seed))
	s := &State{Epoch: 12, Iter: 3456, Params: make([]float32, n), Velocity: make([]float32, n)}
	for i := range s.Params {
		s.Params[i] = float32(r.NormFloat64())
		s.Velocity[i] = float32(r.NormFloat64())
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := randState(1000, 1)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != s.Epoch || got.Iter != s.Iter {
		t.Fatalf("counters %d/%d", got.Epoch, got.Iter)
	}
	for i := range s.Params {
		if got.Params[i] != s.Params[i] || got.Velocity[i] != s.Velocity[i] {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
}

func TestEmptyVelocity(t *testing.T) {
	s := &State{Epoch: 1, Iter: 2, Params: []float32{1, 2, 3}}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Velocity) != 0 || len(got.Params) != 3 {
		t.Fatalf("lens %d/%d", len(got.Params), len(got.Velocity))
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := randState(100, 2)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, pos := range []int{0, 5, 30, len(data) / 2, len(data) - 5} {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0xFF
		if _, err := Read(bytes.NewReader(corrupt)); err == nil {
			t.Errorf("flip at %d not detected", pos)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	s := randState(100, 3)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, 20, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation to %d not detected", cut)
		}
	}
}

// Kill-and-resume must be bit-exact: train, checkpoint, train more;
// separately restore the checkpoint and train the same steps; parameters
// must agree exactly.
func TestResumeBitExact(t *testing.T) {
	step := func(net *nn.Network, sgd *optim.SGD, seed int64, steps int) {
		r := rand.New(rand.NewSource(seed))
		n := net.NumParams()
		grad := make([]float32, n)
		delta := make([]float32, n)
		x := tensor.New(8, 16)
		labels := make([]int, 8)
		loss := nn.SoftmaxCE{}
		for s := 0; s < steps; s++ {
			for i := range x.Data {
				x.Data[i] = float32(r.NormFloat64())
			}
			for i := range labels {
				labels[i] = r.Intn(4)
			}
			net.ZeroGrads()
			logits := net.Forward(x, true)
			_, dl := loss.Loss(logits, labels)
			net.Backward(dl)
			net.FlattenGrads(grad)
			sgd.Delta(delta, grad)
			net.AddToParams(delta)
		}
	}

	// Run A: 5 steps, checkpoint, 5 more.
	netA := models.MLP(16, 32, 4, 9)
	sgdA := optim.NewSGD(0.05, 0.9, netA.NumParams())
	step(netA, sgdA, 100, 5)
	var buf bytes.Buffer
	if err := Write(&buf, Capture(netA, sgdA, 0, 5)); err != nil {
		t.Fatal(err)
	}
	step(netA, sgdA, 200, 5)

	// Run B: restore checkpoint into fresh objects, replay the last 5.
	netB := models.MLP(16, 32, 4, 777) // different init, fully overwritten
	sgdB := optim.NewSGD(0.05, 0.9, netB.NumParams())
	st, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(netB, sgdB); err != nil {
		t.Fatal(err)
	}
	step(netB, sgdB, 200, 5)

	pa := netA.GetParams(make([]float32, netA.NumParams()))
	pb := netB.GetParams(make([]float32, netB.NumParams()))
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("resume not bit-exact at %d: %g vs %g", i, pa[i], pb[i])
		}
	}
}

func TestApplyValidation(t *testing.T) {
	net := models.MLP(16, 32, 4, 1)
	st := &State{Params: make([]float32, 3)}
	if err := st.Apply(net, nil); err == nil {
		t.Fatal("length mismatch should error")
	}
}

// TestApplyChecksBeforeWrite: a snapshot whose velocity does not fit the
// model returns an error naming both lengths and leaves the parameters
// and the velocity bit for bit as they were.
func TestApplyChecksBeforeWrite(t *testing.T) {
	net := models.MLP(4, 8, 2, 1)
	n := net.NumParams()
	sgd := optim.NewSGD(0.1, 0.9, n)
	st := randState(n, 3)
	st.Velocity = st.Velocity[:3]
	sgd.Restore(randState(n, 4).Velocity)
	params, vel := Capture(net, sgd, 0, 0).Params, sgd.AppendState(nil)

	err := st.Apply(net, sgd)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("3 velocity values for a %d-param model", n)) {
		t.Fatalf("Apply with a 3-float velocity: %v", err)
	}
	unchanged := func(what string, got, want []float32) {
		t.Helper()
		for i, v := range want {
			if math.Float32bits(got[i]) != math.Float32bits(v) {
				t.Fatalf("%s %d written before the rejection", what, i)
			}
		}
	}
	unchanged("parameter", net.GetParams(make([]float32, n)), params)
	unchanged("velocity", sgd.AppendState(nil), vel)
}

// TestCaptureIntoReusesState: capturing into a recycled state writes
// what Capture would, in the state's own vectors, and allocates nothing;
// a Clone shares no vector with its source.
func TestCaptureIntoReusesState(t *testing.T) {
	net := models.MLP(4, 8, 2, 1)
	n := net.NumParams()
	sgd := optim.NewSGD(0.1, 0.9, n)
	sgd.Restore(randState(n, 5).Velocity)
	dst := randState(n, 6)
	params, vel := &dst.Params[0], &dst.Velocity[0]
	if got := CaptureInto(dst, net, sgd, 3, 7); got != dst || &got.Params[0] != params || &got.Velocity[0] != vel {
		t.Fatal("CaptureInto did not write into the state it was given")
	}
	want := Capture(net, sgd, 3, 7)
	if dst.Epoch != 3 || dst.Iter != 7 || !slices.Equal(dst.Params, want.Params) || !slices.Equal(dst.Velocity, want.Velocity) {
		t.Fatal("CaptureInto differs from Capture")
	}
	if a := testing.AllocsPerRun(20, func() { CaptureInto(dst, net, sgd, 3, 7) }); a != 0 {
		t.Errorf("CaptureInto a recycled state allocates %.2f allocs/op, want 0", a)
	}
	c := dst.Clone()
	c.Params[0]++
	c.Velocity[0]++
	if dst.Params[0] != want.Params[0] || dst.Velocity[0] != want.Velocity[0] {
		t.Error("a Clone shares its vectors with the source")
	}
}
