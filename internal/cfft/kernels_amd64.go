//go:build !purego

package cfft

import "fftgrad/internal/cpu"

// The AVX2 kernel set (kernels_amd64.s), selected once if the CPU has AVX2
// and the OS saves the YMM state (cpu.AVX2). Each wrapper hands the
// assembly the whole groups of four it works in and runs whatever is left
// — a row range cut at an odd boundary by the parallel split, the first
// bins of the untangle pass, blocks too small to pair — through the Go
// reference, which computes the same bits.

//go:noescape
func radix4AVX2(x *complex128, nblk int, tw *float64, m, lo, hi int, inverse bool)

//go:noescape
func radix4x8AVX2(x *complex128, npair int, tw *float64, inverse bool)

//go:noescape
func stage2AVX2(x *complex128, nquad int)

//go:noescape
func stage4AVX2(x *complex128, npair int, inverse bool)

//go:noescape
func untangleAVX2(spec, z *complex128, untw *float64, h int)

//go:noescape
func retangleAVX2(z, spec *complex128, untw *float64, h int)

//go:noescape
func loadAVX2(t *tile, x *complex128, stride int, s float64, inverse bool)

//go:noescape
func storeAVX2(x *complex128, t *tile, stride int)

var avx2 = kernels{radix4Vec, stage2Vec, stage4Vec, untangleVec, retangleVec, tilesVec}

func init() {
	if cpu.AVX2 {
		active = avx2
	}
}

func radix4Vec(x []complex128, tw []float64, m, lo, hi int, inverse bool) {
	if m == 8 {
		if pairs := len(x) / 16; pairs > 0 && lo == 0 && hi == 2 {
			radix4x8AVX2(&x[0], pairs, &tw[0], inverse)
			x = x[16*pairs:]
		}
		radix4Go(x, tw, m, lo, hi, inverse)
		return
	}
	lo4, hi4 := (lo+3)&^3, hi&^3
	if lo4 >= hi4 {
		radix4Go(x, tw, m, lo, hi, inverse)
		return
	}
	if lo < lo4 {
		radix4Go(x, tw, m, lo, lo4, inverse)
	}
	if hi4 < hi {
		radix4Go(x, tw, m, hi4, hi, inverse)
	}
	radix4AVX2(&x[0], len(x)/m, &tw[0], m, lo4, hi4, inverse)
}

func stage2Vec(x []complex128) {
	if quads := len(x) / 4; quads > 0 {
		stage2AVX2(&x[0], quads)
		x = x[4*quads:]
	}
	stage2Go(x)
}

func stage4Vec(x []complex128, inverse bool) {
	if pairs := len(x) / 8; pairs > 0 {
		stage4AVX2(&x[0], pairs, inverse)
		x = x[8*pairs:]
	}
	stage4Go(x, inverse)
}

func untangleVec(spec, z []complex128, untw []float64) {
	h := len(z)
	if h < 8 {
		untangleGo(spec, z, untw)
		return
	}
	for _, k := range [...]int{0, 1, 2, 3, h} {
		untangle1(spec, z, untw, k)
	}
	untangleAVX2(&spec[0], &z[0], &untw[0], h)
	spec[0] = complex(real(spec[0]), 0)
	spec[h] = complex(real(spec[h]), 0)
}

func retangleVec(z, spec []complex128, untw []float64) {
	h := len(z)
	if h < 8 {
		retangleGo(z, spec, untw)
		return
	}
	for k := 0; k < 4; k++ {
		retangle1(z, spec, untw, k)
	}
	retangleAVX2(&z[0], &spec[0], &untw[0], h)
}

func tilesVec(c reorderCtx, lo, hi int) {
	var t, u tile
	stride, s := c.p.n>>4, 1/float64(c.p.n)
	c.walk(lo, hi, func(b, rb int, pair bool) {
		loadVec(&t, c.src[b<<4:], stride, s, c.inverse)
		if pair {
			loadVec(&u, c.src[rb<<4:], stride, s, c.inverse)
			storeVec(c.dst[b<<4:], &u, stride)
		}
		storeVec(c.dst[rb<<4:], &t, stride)
	})
}

func loadVec(t *tile, x []complex128, stride int, s float64, inverse bool) {
	_ = x[15*stride+15] // the tile's last element
	loadAVX2(t, &x[0], stride, s, inverse)
}

func storeVec(x []complex128, t *tile, stride int) {
	_ = x[15*stride+15]
	storeAVX2(&x[0], t, stride)
}
