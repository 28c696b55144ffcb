package compress

import (
	"fmt"
	"math"

	"fftgrad/internal/parallel"
)

// FP32 is the identity "compressor": the lossless SGD baseline that ships
// raw 32-bit floats.
type FP32 struct{}

// Name implements Compressor.
func (FP32) Name() string { return "fp32" }

// AppendCompress implements Compressor.
func (FP32) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	off := len(dst)
	dst = extendBytes(dst, 4*len(grad))
	parallel.For2(len(grad), dst[off:], grad, func(out []byte, grad []float32, lo, hi int) {
		for i := lo; i < hi; i++ {
			le.PutUint32(out[4*i:], math.Float32bits(grad[i]))
		}
	})
	return dst, nil
}

// DecompressInto implements Compressor.
func (FP32) DecompressInto(dst []float32, msg []byte) error {
	if len(msg) != 4*len(dst) {
		return fmt.Errorf("fp32: message %d bytes, want %d", len(msg), 4*len(dst))
	}
	parallel.For2(len(dst), dst, msg, func(dst []float32, msg []byte, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = math.Float32frombits(le.Uint32(msg[4*i:]))
		}
	})
	return nil
}

// extendBytes grows dst by k bytes of unspecified content, reslicing in
// place when capacity allows (the steady state for reused message buffers)
// and reallocating with headroom otherwise.
func extendBytes(dst []byte, k int) []byte {
	n := len(dst)
	if cap(dst) >= n+k {
		return dst[:n+k]
	}
	nd := make([]byte, n+k)
	copy(nd, dst)
	return nd
}
