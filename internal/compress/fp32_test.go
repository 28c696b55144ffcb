package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestFP32WireMatchesByteLoop pins the byte-view copies against the
// per-element byte loops they replace on little-endian hosts (and which
// big-endian hosts still run): the encoded bytes, the decoded bits and
// the accumulated bits, on arbitrary float32 patterns, with the message
// at every offset modulo 4 inside its buffer — behind a guard frame
// header it need not be aligned.
func TestFP32WireMatchesByteLoop(t *testing.T) {
	if !littleEndian {
		t.Skip("big-endian host: the byte loops are the only path")
	}
	defer func() { littleEndian = true }()
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{0, 1, 7, fp32Block - 1, fp32Block + 1, 5003} {
		g := make([]float32, n)
		for i := range g {
			g[i] = math.Float32frombits(rng.Uint32())
		}
		d0 := make([]float32, n)
		for i := range d0 {
			d0[i] = float32(rng.NormFloat64())
		}
		for off := 0; off < 4; off++ {
			type out struct {
				msg      []byte
				dec, acc []float32
			}
			run := func(native bool) out {
				littleEndian = native
				msg, _ := FP32{}.AppendCompress(make([]byte, off, off+4*n), g)
				o := out{msg: msg[off:], dec: make([]float32, n), acc: append([]float32(nil), d0...)}
				if err := (FP32{}).DecompressInto(o.dec, o.msg); err != nil {
					t.Fatal(err)
				}
				if err := (FP32{}).AccumulateInto(o.acc, o.msg, 0.5, 1.0/3); err != nil {
					t.Fatal(err)
				}
				return o
			}
			got, want := run(true), run(false)
			if !bytes.Equal(got.msg, want.msg) {
				t.Fatalf("n=%d offset %d: encoded bytes differ from the byte loop's", n, off)
			}
			for i := range want.dec {
				if math.Float32bits(got.dec[i]) != math.Float32bits(want.dec[i]) {
					t.Fatalf("n=%d offset %d element %d: decoded %#x, byte loop %#x", n, off, i,
						math.Float32bits(got.dec[i]), math.Float32bits(want.dec[i]))
				}
				if a, b := got.acc[i], want.acc[i]; math.Float32bits(a) != math.Float32bits(b) && !(a != a && b != b) {
					t.Fatalf("n=%d offset %d element %d: accumulated %#x, byte loop %#x", n, off, i,
						math.Float32bits(a), math.Float32bits(b))
				}
			}
		}
	}
}
