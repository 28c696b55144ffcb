package tensor

// gemm is one product's operands, handed to the row workers by value so
// the parallel bodies capture nothing. In the axpy form (MatMul,
// MatMulTransA) output row i is Σ_p A(i,p)·B[p], with A(i,p) at
// a[i·ai + p·ap].
type gemm struct {
	c, a, b []float32
	k, n    int
	ai, ap  int
}

// kernels is the set of inner loops the three products and Col2im spend
// their time in. Lanes and registers hold different output elements, never different
// terms of one sum. The Go functions are the reference and the only set
// off amd64; a platform file may replace the active set at init with one
// producing the same bits (kernels_amd64.go), as in package cfft.
type kernels struct {
	// axpy4 sets c[x] = (((c[x] + a0·b0[x]) + a1·b1[x]) + a2·b2[x]) +
	// a3·b3[x] for every x of c: four terms of each output in one pass
	// over c, in order. The b rows are at least len(c) long.
	axpy4 func(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
	// axpy1 sets c[x] += a·b[x], for the one to three terms a row has
	// left over after its groups of four.
	axpy1 func(c, b []float32, a float32)
	// transB fills rows [lo, hi) of C = A·Bᵀ.
	transB func(g gemm, lo, hi int)
	// add sets c[x] = c[x] + b[x] for every x of c (Col2im's span add).
	add func(c, b []float32)
}

var (
	scalar = kernels{axpy4Go, axpy1Go, transBRows, addGo}
	// active is chosen once, at package init; only the bit-identity tests
	// assign it afterwards.
	active = scalar
)

// axpyRows fills rows [lo, hi) of an axpy-form product: each row starts
// at +0 and takes its non-zero terms in ascending p, folded four to a
// pass over the row. The ±0 skip is decided here, before any kernel.
func axpyRows(g gemm, lo, hi int) {
	n := g.n
	for i := lo; i < hi; i++ {
		crow := g.c[i*n : (i+1)*n]
		clear(crow)
		var av [4]float32
		var off [4]int
		q := 0
		for p := 0; p < g.k; p++ {
			v := g.a[i*g.ai+p*g.ap]
			if v == 0 {
				continue
			}
			av[q], off[q] = v, p*n
			if q++; q == 4 {
				active.axpy4(crow, g.b[off[0]:], g.b[off[1]:], g.b[off[2]:], g.b[off[3]:], av[0], av[1], av[2], av[3])
				q = 0
			}
		}
		for r := 0; r < q; r++ {
			active.axpy1(crow, g.b[off[r]:], av[r])
		}
	}
}

func axpy4Go(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for x, v := range c {
		c[x] = v + a0*b0[x] + a1*b1[x] + a2*b2[x] + a3*b3[x]
	}
}

func axpy1Go(c, b []float32, a float32) {
	b = b[:len(c)]
	for x, v := range c {
		c[x] = v + a*b[x]
	}
}

func addGo(c, b []float32) {
	b = b[:len(c)]
	for x, v := range c {
		c[x] = v + b[x]
	}
}

// transBRows fills rows [lo, hi) of C = A·Bᵀ: four output columns per
// pass over a row of A, each in its own accumulator.
func transBRows(g gemm, lo, hi int) {
	k, n := g.k, g.n
	for i := lo; i < hi; i++ {
		arow := g.a[i*k : (i+1)*k]
		crow := g.c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := g.b[j*k:][:len(arow)]
			b1 := g.b[(j+1)*k:][:len(arow)]
			b2 := g.b[(j+2)*k:][:len(arow)]
			b3 := g.b[(j+3)*k:][:len(arow)]
			var c0, c1, c2, c3 float32
			for p, av := range arow {
				c0 += av * b0[p]
				c1 += av * b1[p]
				c2 += av * b2[p]
				c3 += av * b3[p]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			brow := g.b[j*k:][:len(arow)]
			var acc float32
			for p, av := range arow {
				acc += av * brow[p]
			}
			crow[j] = acc
		}
	}
}
