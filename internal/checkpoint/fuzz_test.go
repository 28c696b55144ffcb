package checkpoint

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
)

// FuzzRead feeds arbitrary bytes to the checkpoint reader: corrupt input
// must produce errors, never panics, and anything that parses must
// re-serialize to an equivalent state. Every parsed state is then applied
// to a network with as many parameters and its optimizer: Apply returns an
// error (a velocity that fits neither) or restores the parameters exactly,
// never panics.
func FuzzRead(f *testing.F) {
	for _, st := range []*State{
		{Epoch: 3, Iter: 77, Params: []float32{1, 2, 3}, Velocity: []float32{4, 5, 6}},
		{Epoch: 3, Iter: 77, Params: []float32{1, 2, 3}, Velocity: []float32{4, 5}},
	} {
		var valid bytes.Buffer
		if err := Write(&valid, st); err != nil {
			f.Fatal(err)
		}
		f.Add(valid.Bytes())
	}
	f.Add([]byte("FGCK"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must round-trip losslessly.
		var buf bytes.Buffer
		if err := Write(&buf, st); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		st2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if st2.Epoch != st.Epoch || st2.Iter != st.Iter ||
			len(st2.Params) != len(st.Params) || len(st2.Velocity) != len(st.Velocity) {
			t.Fatal("round trip changed the state")
		}

		// A dense layer of k−1 inputs to one output has k parameters.
		var net *nn.Network
		if k := len(st.Params); k == 0 {
			net = nn.Sequential()
		} else {
			net = nn.Sequential(nn.NewDense(k-1, 1, rand.New(rand.NewSource(1))))
		}
		err = st.Apply(net, optim.NewSGD(0.1, 0.9, net.NumParams()))
		if fits := len(st.Velocity) == 0 || len(st.Velocity) == len(st.Params); fits != (err == nil) {
			t.Fatalf("Apply with %d params and %d velocity values: %v", len(st.Params), len(st.Velocity), err)
		}
		if err == nil {
			for i, v := range st.Params {
				if math.Float32bits(net.Data()[i]) != math.Float32bits(v) {
					t.Fatalf("parameter %d not restored", i)
				}
			}
		}
	})
}
