//go:build !purego

package compress

import (
	"unsafe"

	"fftgrad/internal/cpu"
)

// The AVX2 fold (kernels_amd64.s), selected once if cpu.AVX2. Each wrapper
// hands the assembly the whole groups of eight and runs the rest through
// the Go reference. x is an untyped pointer: for foldWire it is the
// message itself, which behind a guard frame header need not be 4-byte
// aligned and so is never converted to *float32 in Go.

//go:noescape
func foldAVX2(dst *float32, x unsafe.Pointer, n8 int, wt, scale float32)

func init() {
	if cpu.AVX2 {
		active = kernels{foldVec, foldWireVec}
	}
}

func foldVec(dst, x []float32, f fold, lo, hi int) {
	if n8 := (hi - lo) / 8; n8 > 0 {
		_ = dst[lo+8*n8-1]
		_ = x[lo+8*n8-1]
		foldAVX2(&dst[lo], unsafe.Pointer(&x[lo]), n8, f.wt, f.scale)
		lo += 8 * n8
	}
	accumulateRange(dst, x, f, lo, hi)
}

func foldWireVec(dst []float32, msg []byte, f fold, lo, hi int) {
	if n8 := (hi - lo) / 8; n8 > 0 {
		_ = dst[lo+8*n8-1]
		_ = msg[4*(lo+8*n8)-1]
		foldAVX2(&dst[lo], unsafe.Pointer(&msg[4*lo]), n8, f.wt, f.scale)
		lo += 8 * n8
	}
	accumulateWire(dst, msg, f, lo, hi)
}
