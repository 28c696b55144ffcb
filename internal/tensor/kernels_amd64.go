//go:build !purego

package tensor

import (
	"fftgrad/internal/cpu"
	"fftgrad/internal/scratch"
)

// The AVX2 kernel set (kernels_amd64.s), selected once if cpu.AVX2. The
// axpy and add wrappers hand the assembly the whole groups of eight
// outputs and run the rest of the row through the Go reference.

//go:noescape
func axpy4AVX2(c, b0, b1, b2, b3 *float32, a0, a1, a2, a3 float32, n8 int)

//go:noescape
func axpy1AVX2(c, b *float32, a float32, n8 int)

//go:noescape
func addAVX2(c, b *float32, n8 int)

//go:noescape
func transBAVX2(out, a, panels *float32, k int)

//go:noescape
func packAVX2(dst, b *float32, k, np int)

func init() {
	if cpu.AVX2 {
		active = kernels{axpy4Vec, axpy1Vec, transBVec, addVec}
	}
}

func axpy4Vec(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	if n8 := len(c) / 8; n8 > 0 {
		w := 8 * n8
		_, _, _, _ = b0[w-1], b1[w-1], b2[w-1], b3[w-1]
		axpy4AVX2(&c[0], &b0[0], &b1[0], &b2[0], &b3[0], a0, a1, a2, a3, n8)
		c, b0, b1, b2, b3 = c[w:], b0[w:], b1[w:], b2[w:], b3[w:]
	}
	axpy4Go(c, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy1Vec(c, b []float32, a float32) {
	if n8 := len(c) / 8; n8 > 0 {
		w := 8 * n8
		_ = b[w-1]
		axpy1AVX2(&c[0], &b[0], a, n8)
		c, b = c[w:], b[w:]
	}
	axpy1Go(c, b, a)
}

func addVec(c, b []float32) {
	if n8 := len(c) / 8; n8 > 0 {
		w := 8 * n8
		_ = b[w-1]
		addAVX2(&c[0], &b[0], n8)
		c, b = c[w:], b[w:]
	}
	addGo(c, b)
}

// transBVec fills rows [lo, hi) of C = A·Bᵀ 32 columns at a time, one
// lane per output column: it packs the columns' 32 rows of B into four
// k×8 panels once and runs each row of A against them. When n is not a
// multiple of 32 the last group ends at column n and recomputes a few
// columns of the one before it, to the same bits.
func transBVec(g gemm, lo, hi int) {
	k, n := g.k, g.n
	if k == 0 {
		transBRows(g, lo, hi)
		return
	}
	panels, _ := panelList.Get()
	if cap(panels) < 32*k {
		panels = make([]float32, 32*k)
	}
	panels = panels[:32*k]
	for j := 0; j < n; j += 32 {
		c0 := max(min(j, n-32), 0)
		packPanels(panels, g.b[c0*k:], k, min(32, n-c0))
		for i := lo; i < hi; i++ {
			var out [32]float32
			arow := g.a[i*k : (i+1)*k]
			transBAVX2(&out[0], &arow[0], &panels[0], k)
			copy(g.c[i*n+j:(i+1)*n], out[j-c0:])
		}
	}
	panelList.Put(panels)
}

// panelList keeps the packing panels of the transBVec calls in flight, on
// a free list rather than in a pool: a pooled panel is missed when the
// goroutine has moved to another P since its Put, so a product allocated
// now and then. Once the list holds as many panels as products ever
// overlap, each grown to the largest 32·k, a product never allocates.
var panelList scratch.FreeList[[]float32]

// packPanels lays B's first rows rows (at most 32, each k long) out as
// four k×8 panels: panel q holds rows 8q … 8q+7 as its eight columns, so
// its eight floats at p are those rows' p-th elements. Lanes past rows
// compute outputs nobody reads; they are zeroed so that they never
// compute on what the reused panel held (a subnormal there would stall
// every product). The assembly transposes
// the 8×8 blocks of the whole panels; the last k mod 8 elements of their
// rows and a partial panel are copied here.
func packPanels(dst, b []float32, k, rows int) {
	full, k8 := rows/8, k/8
	if full > 0 && k8 > 0 {
		_, _ = dst[8*full*k-1], b[8*full*k-1]
		packAVX2(&dst[0], &b[0], k, full)
	}
	clear(dst[8*full*k : 32*k])
	for r := 0; r < rows; r++ {
		p0 := 0
		if r < 8*full {
			p0 = 8 * k8
		}
		lane := dst[(r/8)*8*k+r%8:]
		row := b[r*k:][:k]
		for p := p0; p < k; p++ {
			lane[8*p] = row[p]
		}
	}
}
