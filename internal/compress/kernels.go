package compress

// kernels is the fold of a decoded message into a running sum, the sweep
// over the flat vector that every exchange ends in. The Go functions are
// the reference; a platform file may replace the active set at init with
// one producing the same bits, NaN payloads included (kernels_amd64.go,
// DESIGN.md Sec. 10.6).
type kernels struct {
	// fold sets dst[i] = (dst[i] + wt·x[i])·scale over [lo, hi) (a
	// parallel.For3 body).
	fold func(dst, x []float32, f fold, lo, hi int)
	// foldWire is fold with x read from an FP32 message: x[i] is the
	// little-endian float32 at msg[4i:], at whatever alignment.
	foldWire func(dst []float32, msg []byte, f fold, lo, hi int)
}

// fold is the (wt, scale) pair of an accumulation, threaded by value
// through the parallel bodies.
type fold struct{ wt, scale float32 }

var (
	scalar = kernels{accumulateRange, accumulateWire}
	// active is chosen once, at package init; only the bit-identity tests
	// assign it afterwards.
	active = scalar
)

// accumulateRange is the fold's one compiled body: when both operands of
// an operation are NaN, the payload x86 returns is the first source's, and
// which operand the compiler puts first is its choice, which an inlined
// copy may make differently (one did under -race). So it is never inlined.
//
//go:noinline
func accumulateRange(dst, x []float32, f fold, lo, hi int) {
	dst, x = dst[lo:hi], x[lo:hi]
	for i, v := range x {
		dst[i] = (dst[i] + f.wt*v) * f.scale
	}
}

// accumulateWire converts the message into an aligned block on the stack
// and folds that, a block at a time.
func accumulateWire(dst []float32, msg []byte, f fold, lo, hi int) {
	var blk [fp32Block]float32
	for ; lo < hi; lo += fp32Block {
		x := blk[:min(fp32Block, hi-lo)]
		getFP32(x, msg[4*lo:])
		accumulateRange(dst[lo:], x, f, 0, len(x))
	}
}
