package guard

import (
	"errors"
	"testing"

	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
)

// FuzzUnframe feeds arbitrary bytes to the frame decoder: every input
// must either decode cleanly or fail with an error wrapping
// comm.ErrCorrupt — never panic, and never return a payload that
// re-frames to something failing Verify.
func FuzzUnframe(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, []byte("payload"), true))
	f.Add(AppendFrame(nil, []byte("payload"), false))
	f.Add(AppendFrameFP(nil, []byte("payload"), true, 0xFEEDFACE))
	f.Add(AppendFrameFP(nil, nil, false, 1))
	f.Add([]byte{0x47, 0x46, 1, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Unframe(data)
		if err != nil {
			if !errors.Is(err, comm.ErrCorrupt) {
				t.Fatalf("Unframe error %v does not wrap comm.ErrCorrupt", err)
			}
			return
		}
		// Verify must agree with Unframe on validity.
		if verr := Verify(data); verr != nil {
			t.Fatalf("Unframe accepted a frame Verify rejects: %v", verr)
		}
		// Accepted payloads round-trip through a fresh frame.
		fp, hasFP := PeekFingerprint(data)
		var again []byte
		if hasFP {
			again = AppendFrameFP(nil, payload, true, fp)
		} else {
			again = AppendFrame(nil, payload, true)
		}
		got, err := Unframe(again)
		if err != nil {
			t.Fatalf("re-framed payload rejected: %v", err)
		}
		if string(got) != string(payload) {
			t.Fatal("payload mutated across re-framing")
		}
	})
}

// FuzzFramedDecompress feeds arbitrary bytes to the CRC-framed FFT
// decoder: the frame check must reject — never crash on — garbage before
// it reaches the inner codec, and whatever passes the check must not
// crash the codec either. A valid framed message seeds the corpus so
// mutations explore both headers.
func FuzzFramedDecompress(f *testing.F) {
	g := make([]float32, 500)
	for i := range g {
		g[i] = float32(i%17) - 8
	}
	msg, err := NewFramed(compress.NewFFT(0.85), true).AppendCompress(nil, g)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(msg, uint16(500))
	f.Add([]byte{}, uint16(0))
	f.Add(AppendFrame(nil, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, true), uint16(100))

	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16) {
		dst := make([]float32, int(nRaw)%4096+2)
		// Errors are expected for garbage; panics are bugs.
		_ = NewFramed(compress.NewFFT(0.85), true).DecompressInto(dst, data)
	})
}
