package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"fftgrad/internal/parallel"
)

// FP32 is the identity "compressor": the lossless SGD baseline that ships
// raw 32-bit floats.
//
// The wire is little-endian float32, which on a little-endian host is the
// memory of a []float32: both directions are a copy through a byte view
// of the float slice. The message itself is never viewed as []float32 —
// behind a guard frame header it need not be 4-byte aligned — so
// AccumulateInto hands its bytes to the fold kernel, which loads them
// unaligned, or (the reference) copies them into an aligned block on the
// stack first. The per-element byte loops are the reference and the
// big-endian path.
type FP32 struct{}

// littleEndian selects the byte-view copies and the in-place fold; only
// the tests that pin them against the byte loops assign it.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// fp32Block is the float count the reference fold (accumulateWire)
// converts at a time: 4 KiB of stack, L1-resident between the copy and
// the sum that reads it.
const fp32Block = 1024

// Name implements Compressor.
func (FP32) Name() string { return "fp32" }

// AppendCompress implements Compressor.
func (FP32) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	off := len(dst)
	dst = extendBytes(dst, 4*len(grad))
	parallel.For2(len(grad), dst[off:], grad, func(out []byte, grad []float32, lo, hi int) {
		putFP32(out[4*lo:4*hi], grad[lo:hi])
	})
	return dst, nil
}

// DecompressInto implements Compressor.
func (FP32) DecompressInto(dst []float32, msg []byte) error {
	if len(msg) != 4*len(dst) {
		return fmt.Errorf("fp32: message %d bytes, want %d", len(msg), 4*len(dst))
	}
	parallel.For2(len(dst), dst, msg, func(dst []float32, msg []byte, lo, hi int) {
		getFP32(dst[lo:hi], msg[4*lo:4*hi])
	})
	return nil
}

// AccumulateInto implements Accumulator, reading the wire once.
func (FP32) AccumulateInto(dst []float32, msg []byte, wt, scale float32) error {
	if len(msg) != 4*len(dst) {
		return fmt.Errorf("fp32: message %d bytes, want %d", len(msg), 4*len(dst))
	}
	body := active.foldWire
	if !littleEndian {
		body = scalar.foldWire
	}
	parallel.For3(len(dst), dst, msg, fold{wt, scale}, body)
	return nil
}

// putFP32 writes x to out (4·len(x) bytes) in wire order.
func putFP32(out []byte, x []float32) {
	if littleEndian {
		copy(out, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), 4*len(x)))
		return
	}
	for i, v := range x {
		le.PutUint32(out[4*i:], math.Float32bits(v))
	}
}

// getFP32 fills x from the first 4·len(x) bytes of in.
func getFP32(x []float32, in []byte) {
	if littleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), 4*len(x)), in)
		return
	}
	for i := range x {
		x[i] = math.Float32frombits(le.Uint32(in[4*i:]))
	}
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
