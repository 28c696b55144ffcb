package optim

// kernels is the momentum step over one parameter span, the second sweep
// over the flat vector after the exchange. The Go function is the
// reference; a platform file may replace the active set at init with one
// producing the same bits, NaN payloads included (kernels_amd64.go,
// DESIGN.md Sec. 10.6).
type kernels struct {
	// step sets v = μ·vel[i] + g[i]; vel[i] = v; w[i] += −η·v for every i
	// of w (vel and g at least as long).
	step func(w, vel, g []float32, mu, lr float32)
}

var (
	scalar = kernels{sgdStep}
	// active is chosen once, at package init; only the bit-identity tests
	// assign it afterwards.
	active = scalar
)

// sgdStep is the step's one compiled body: when both operands of an
// operation are NaN, the payload x86 returns is the first source's, and
// which operand the compiler puts first is its choice, which an inlined
// copy may make differently (one did, for −η·v). So it is never inlined.
//
//go:noinline
func sgdStep(w, vel, g []float32, mu, lr float32) {
	for i := range w {
		v := mu*vel[i] + g[i]
		vel[i] = v
		w[i] += -lr * v
	}
}
