package cfft

// kernels is the set of inner loops a transform spends its time in. The
// Go functions below are the reference implementation; a platform file
// may replace the active set at init with one that produces the same
// bits (kernels_amd64.go). Nothing else in the package branches on the
// platform.
type kernels struct {
	// radix4 applies butterfly rows [lo, hi) of the fused size-m stage to
	// every size-m block of x (len(x) is a multiple of m).
	radix4 func(x []complex128, tw []float64, m, lo, hi int, inverse bool)
	// stage2 and stage4 are the multiplication-free opening stages over
	// the whole of x, for odd and even log2 of the leaf size.
	stage2 func(x []complex128)
	stage4 func(x []complex128, inverse bool)
	// untangle turns the half-length complex transform z of a packed real
	// signal into its len(z)+1 spectrum bins; retangle is its inverse,
	// producing the packed half-length spectrum the inverse transform
	// consumes. untw is RealPlan.untw.
	untangle func(spec, z []complex128, untw []float64)
	retangle func(z, spec []complex128, untw []float64)
	// tiles permutes units [lo, hi) of the bit-reversal pass (walk,
	// cfft.go), tile by tile, times 1/n when inverse.
	tiles func(c reorderCtx, lo, hi int)
}

var (
	scalar = kernels{radix4Go, stage2Go, stage4Go, untangleGo, retangleGo, tilesGo}
	// active is chosen once, at package init; only the bit-identity tests
	// assign it afterwards.
	active = scalar
)

// stage2Go applies the size-2 butterfly across the whole block (the opening
// stage when log2(n) is odd; direction-independent and twiddle-free).
func stage2Go(x []complex128) {
	for j := 0; j+1 < len(x); j += 2 {
		a, b := x[j], x[j+1]
		x[j], x[j+1] = a+b, a-b
	}
}

// stage4Go applies the twiddle-free size-4 fused butterfly across the whole
// block (the opening stage when log2(n) is even: all twiddles are 1).
func stage4Go(x []complex128, inverse bool) {
	for j := 0; j+3 < len(x); j += 4 {
		x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3]
		s0, s1 := x0+x1, x0-x1
		s2, s3 := x2+x3, x2-x3
		// ±i·s3 written out as a rotation: i·(a+bi) = -b + ai.
		r := complex(-imag(s3), real(s3))
		if inverse {
			x[j], x[j+1], x[j+2], x[j+3] = s0+s2, s1+r, s0-s2, s1-r
		} else {
			x[j], x[j+1], x[j+2], x[j+3] = s0+s2, s1-r, s0-s2, s1+r
		}
	}
}

// radix4Go applies the fused radix-4 butterfly to rows k in [lo, hi) of
// every size-m block of x. tw holds the forward triples (W^k, W^2k,
// W^3k); the inverse direction conjugates them in registers and swaps the
// ∓i rotation, which is exactly the conjugate network. Fusing two radix-2
// stages costs 3 complex multiplies per 4 outputs instead of 4 and makes
// one memory pass instead of two.
func radix4Go(x []complex128, tw []float64, m, lo, hi int, inverse bool) {
	q := m >> 2
	for ; len(x) >= m; x = x[m:] {
		a := x[:q:q]
		b := x[q : 2*q : 2*q]
		c := x[2*q : 3*q : 3*q]
		d := x[3*q : m : m]
		// Group by group of the table, so the inner loop indexes one
		// fixed-size array (the &3 tells the compiler the lane is in range).
		for k := lo; k < hi; {
			g := (*[twGroup]float64)(tw[twGroup*(k>>2):])
			end := min(hi, k|3+1)
			if inverse {
				for ; k < end; k++ {
					l := laneOf[k&3] & 3
					w1 := complex(g[l], -g[l+4])
					w2 := complex(g[l+8], -g[l+12])
					w3 := complex(g[l+16], -g[l+20])
					u := b[k] * w2
					v := c[k] * w1
					z := d[k] * w3
					s0, s1 := a[k]+u, a[k]-u
					s2, s3 := v+z, v-z
					r := complex(-imag(s3), real(s3))
					a[k], c[k] = s0+s2, s0-s2
					b[k], d[k] = s1+r, s1-r
				}
				continue
			}
			for ; k < end; k++ {
				l := laneOf[k&3] & 3
				w1 := complex(g[l], g[l+4])
				w2 := complex(g[l+8], g[l+12])
				w3 := complex(g[l+16], g[l+20])
				u := b[k] * w2
				v := c[k] * w1
				z := d[k] * w3
				s0, s1 := a[k]+u, a[k]-u
				s2, s3 := v+z, v-z
				r := complex(-imag(s3), real(s3))
				a[k], c[k] = s0+s2, s0-s2
				b[k], d[k] = s1-r, s1+r
			}
		}
	}
}

// untangleGo computes, for k in [0, h] with h = len(z):
//
//	X[k] = (Z[k]+conj(Z[h-k]))/2 - i·w^k·(Z[k]-conj(Z[h-k]))/2
//
// and forces the DC and Nyquist bins exactly real.
func untangleGo(spec, z []complex128, untw []float64) {
	h := len(z)
	for k := 0; k <= h; k++ {
		untangle1(spec, z, untw, k)
	}
	spec[0] = complex(real(spec[0]), 0)
	spec[h] = complex(real(spec[h]), 0)
}

// untangle1 is one bin of untangleGo (indices h and 0 wrap onto Z[0]).
func untangle1(spec, z []complex128, untw []float64, k int) {
	h := len(z)
	zk, zmk := z[k&(h-1)], z[(h-k)&(h-1)]
	zmk = complex(real(zmk), -imag(zmk))
	even := (zk + zmk) * 0.5
	odd := (zk - zmk) * complex(0, -0.5)
	spec[k] = even + unrow(untw, k)*odd
}

// retangleGo rebuilds the packed half-length spectrum from the len(z)+1
// real-transform bins: Z[k] = E[k] + i·conj(w^k)·O[k], the inverse of the
// untangle rotation.
func retangleGo(z, spec []complex128, untw []float64) {
	for k := range z {
		retangle1(z, spec, untw, k)
	}
}

// retangle1 is one bin of retangleGo.
func retangle1(z, spec []complex128, untw []float64, k int) {
	xk := spec[k]
	xmk := spec[len(z)-k]
	xmk = complex(real(xmk), -imag(xmk))
	even := (xk + xmk) * 0.5
	odd := (xk - xmk) * 0.5
	w := unrow(untw, k)
	wc := complex(real(w), -imag(w))
	z[k] = even + complex(0, 1)*wc*odd
}
