//go:build !purego

package optim

import "fftgrad/internal/cpu"

// The AVX2 step (kernels_amd64.s), selected once if cpu.AVX2. The wrapper
// hands the assembly the whole groups of eight and runs the rest through
// the Go reference.

//go:noescape
func sgdStepAVX2(w, vel, grad *float32, n8 int, mu, negLR float32)

func init() {
	if cpu.AVX2 {
		active = kernels{sgdStepVec}
	}
}

func sgdStepVec(w, vel, g []float32, mu, lr float32) {
	if n8 := len(w) / 8; n8 > 0 {
		_ = vel[8*n8-1]
		_ = g[8*n8-1]
		sgdStepAVX2(&w[0], &vel[0], &g[0], n8, mu, -lr)
		w, vel, g = w[8*n8:], vel[8*n8:], g[8*n8:]
	}
	sgdStep(w, vel, g, mu, lr)
}
