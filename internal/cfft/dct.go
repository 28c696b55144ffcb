package cfft

import "math"

// DCTPlan computes the type-II discrete cosine transform (and its
// inverse, DCT-III) of power-of-two lengths via a mirrored 2n-point real
// FFT. The DCT is the natural ablation partner for the paper's FFT
// sparsifier: its coefficients are purely real — one value per kept bin
// instead of a (re, im) pair — and it avoids the wrap-around
// discontinuity the FFT's implicit periodicity imposes on a gradient
// signal, so it compacts energy at least as well on non-periodic data.
type DCTPlan struct {
	n  int
	rp *RealPlan // length 2n
	// tw[k] = exp(-iπk/(2n)), the post-FFT rotation of the mirror trick
	tw []complex128
}

// NewDCTPlan creates a DCT plan for length n, a power of two >= 2.
func NewDCTPlan(n int) *DCTPlan {
	if !IsPow2(n) || n < 2 {
		panic("cfft: DCT length must be a power of two >= 2")
	}
	p := &DCTPlan{n: n, rp: RealPlanFor(2 * n), tw: make([]complex128, n)}
	for k := 0; k < n; k++ {
		ang := -math.Pi * float64(k) / float64(2*n)
		p.tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return p
}

// ForwardInPlace computes the unnormalized DCT-II of the signal in
// work[:n]:
//
//	dst[k] = Σ_j src[j] · cos(π(2j+1)k / 2n)
//
// dst has length n; work, of length 2n, is the work array and all of it
// is overwritten; spec, of length n+1, receives the half spectrum of the
// mirrored signal on the way. The caller owns both, so the plan borrows
// nothing.
func (p *DCTPlan) ForwardInPlace(dst, work []float64, spec []complex128) {
	n := p.n
	if len(dst) != n || len(work) != 2*n || len(spec) != n+1 {
		panic("cfft: bad DCT forward lengths")
	}
	// Even-symmetric extension: y = [x0..x_{n-1}, x_{n-1}..x0].
	for j := 0; j < n; j++ {
		work[2*n-1-j] = work[j]
	}
	p.rp.ForwardInPlace(spec, work)
	// Y[k] = e^{iπk/2n} · 2·C[k]  ⇒  C[k] = Re(Y[k]·e^{-iπk/2n}) / 2.
	for k := 0; k < n; k++ {
		dst[k] = real(spec[k]*p.tw[k]) / 2
	}
}

// Inverse computes the normalized inverse (DCT-III scaled so that
// Inverse(Forward(x)) == x up to round-off) of src, of length n, into
// work[:n]. work, of length 2n, is the work array and all of it is
// overwritten; spec, of length n+1, holds the mirrored signal's half
// spectrum on the way. src is not modified.
func (p *DCTPlan) Inverse(work, src []float64, spec []complex128) {
	n := p.n
	if len(work) != 2*n || len(src) != n || len(spec) != n+1 {
		panic("cfft: bad DCT inverse lengths")
	}
	// Rebuild the half spectrum of the mirrored signal and invert it.
	for k := 0; k < n; k++ {
		// Y[k] = 2·C[k]·e^{iπk/2n} = 2·C[k]·conj(tw[k])
		c := p.tw[k]
		spec[k] = complex(2*src[k], 0) * complex(real(c), -imag(c))
	}
	spec[n] = 0 // the k=n bin of an even-symmetric signal is always zero
	spec[0] = complex(real(spec[0]), 0)
	p.rp.Inverse(work, spec)
}
