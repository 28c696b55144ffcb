package compress

import "testing"

// fuzzTargets builds one of every decompressor in this package; the
// guard's CRC-framed decoder is fuzzed from internal/guard
// (FuzzFramedDecompress).
func fuzzTargets() []Compressor {
	return []Compressor{
		FP32{},
		NewTopK(0.85),
		NewQSGD(3),
		NewTernGrad(),
		NewFFT(0.85),
		NewDCT(0.85),
	}
}

// FuzzDecompressRobustness feeds arbitrary bytes to every decompressor:
// any outcome is acceptable except a panic or a runaway allocation. Valid
// messages from each compressor seed the corpus so mutations explore the
// interesting header space.
func FuzzDecompressRobustness(f *testing.F) {
	g := smoothGrad(500, 1)
	for _, c := range fuzzTargets() {
		msg, err := c.AppendCompress(nil, g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg, uint16(500))
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(100))
	// Destination lengths 0 and 1 (padded to a 2-point transform by the
	// transform codecs) with their own valid messages.
	for n := 0; n < 2; n++ {
		for _, c := range fuzzTargets() {
			msg, err := c.AppendCompress(nil, g[:n])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(msg, uint16(n))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16) {
		n := int(nRaw) % 4098
		dst := make([]float32, n)
		for _, c := range fuzzTargets() {
			// Errors are expected for garbage; panics are bugs.
			_ = c.DecompressInto(dst, data)
		}
	})
}

// FuzzCompressRoundTrip checks that every compressor round-trips
// arbitrary (finite) gradients of any length, 0 and 1 included, without
// panicking and with finite output.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(make([]byte, 64))
	f.Add([]byte{})           // n = 0
	f.Add([]byte{9, 8, 7, 6}) // n = 1
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 4
		grad := make([]float32, n)
		for i := range grad {
			// Map bytes to a bounded gradient-like range to avoid Inf/NaN
			// inputs, which the compressors do not promise to preserve.
			grad[i] = (float32(raw[i*4])/255 - 0.5) * 2
		}
		dst := make([]float32, n)
		for _, c := range fuzzTargets() {
			msg, err := c.AppendCompress(nil, grad)
			if err != nil {
				t.Fatalf("%s compress: %v", c.Name(), err)
			}
			if err := c.DecompressInto(dst, msg); err != nil {
				t.Fatalf("%s decompress own message: %v", c.Name(), err)
			}
			for i, v := range dst {
				if v != v {
					t.Fatalf("%s produced NaN at %d", c.Name(), i)
				}
			}
		}
	})
}
