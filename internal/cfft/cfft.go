// Package cfft implements fast Fourier transforms from scratch: a fused
// radix-4 Cooley-Tukey transform for power-of-two lengths (every gradient
// is padded to one, see PaddedLen), a real-input transform that maps a
// length-n real signal onto a length-n/2 complex transform, and a type-II
// DCT on top of it.
//
// This is the substrate for the paper's FFT-based gradient sparsification
// (Sec. 3.1.1): the gradient is linearized into a 1-D signal, transformed,
// thresholded in the frequency domain, and inverse-transformed on the
// receiver. The paper uses cuFFT; here the same transforms run on the CPU
// in float64 so the sparsification error measured by the experiments is
// dominated by the *dropped coefficients*, not by transform round-off.
//
// The butterfly network and the real transform's untangle/retangle passes
// go through a small kernel table (kernels.go). The Go loops in this
// package are the reference and the only path on most platforms; on amd64
// with AVX2 the table is switched, once at init, to assembly that executes
// the same IEEE operations in the same pairing, four butterflies per
// instruction, so every output bit is the reference's (DESIGN.md
// Sec. 10.6).
package cfft

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"fftgrad/internal/parallel"
	"fftgrad/internal/scratch"
)

// Plan holds the precomputed state (the per-stage twiddle tables) for
// transforms of one fixed power-of-two length; the bit-reversal
// permutation is computed, not stored (reorder). Plans are safe for
// concurrent use by multiple goroutines once created.
//
// The butterfly network is fused radix-4: each pass combines two radix-2
// stages, so a length-n transform makes ~log4(n) passes over the data
// with 3 complex multiplies per 4 outputs (radix-2 pays 4). Fusing two
// radix-2 stages keeps the plain radix-2 bit-reversal input ordering, so
// no digit-reversal machinery is needed; when log2(n) is odd a single
// multiplication-free size-2 stage runs first. Stages execute in a
// depth-first recursion over sub-blocks, so every block at or below the
// leaf size goes through all of its stages while cache-resident instead
// of streaming the whole array once per stage.
type Plan struct {
	n    int
	logN int
	leaf int // largest block transformed iteratively (cache-resident)
	// tw[s] is the twiddle table for the fused stage of block size 1<<s:
	// the triples (W^k, W^2k, W^3k) with W = exp(-2πi/m), k in [0, m/4),
	// forward sign (the inverse loop conjugates in registers), laid out
	// in groups of four rows (see twGroup). The size-4 stage is
	// multiplication-free and has no table.
	tw [][]float64
}

// twGroup is the number of float64 in one group of a stage's twiddle
// table. A group serves four consecutive butterfly rows and is six
// 4-lane vectors — re(W^k), im(W^k), re(W^2k), im(W^2k), re(W^3k),
// im(W^3k) — so the vector kernels multiply four rows by one 32-byte load
// per operand, and the table is no larger than interleaved triples were.
const twGroup = 24

// laneOf is the lane a row takes inside its group: rows 4g+{0,1,2,3} sit
// in lanes {0,2,1,3}, the order two in-lane unpacks of (re, im) pairs
// produce. The size-8 stage has only rows 0 and 1; its single group
// repeats them in lanes {0,1} and {2,3} so that one vector spans two
// blocks. Both kernels read this one table.
var laneOf = [4]int{0, 2, 1, 3}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n (n must be > 0).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// PaddedLen returns the transform length the gradient pipeline uses for an
// n-element signal: the smallest power of two >= max(n, 2). This is the
// single source of truth shared by the sparsifiers and the compressor wire
// formats (which validate header lengths against it).
func PaddedLen(n int) int {
	if n < 2 {
		return 2
	}
	return NextPow2(n)
}

// The plan caches hold one process-wide plan per power-of-two length,
// indexed by log2(n). Plans are immutable once built, so a
// publish-once-per-slot cache lets every sparsifier share twiddle tables
// instead of rebuilding them per call — and a real or DCT plan takes the
// plan underneath it from here too, so a process that runs both
// transforms holds each table once.
var (
	plans     planCache[Plan]
	realPlans planCache[RealPlan]
	dctPlans  planCache[DCTPlan]
)

// planCache is one kind's cache. A hit is one atomic load. A miss builds
// under the kind's lock, so goroutines that meet a new length together
// (every rank at its first encode) wait for one plan instead of each
// building one and dropping all but the first. A DCT plan builds its real
// plan, and a real plan its complex one, through the next kind's cache:
// the locks nest in that order only.
type planCache[P any] struct {
	mu    sync.Mutex
	slots [bits.UintSize]atomic.Pointer[P]
}

func (c *planCache[P]) get(n int, build func(int) *P) *P {
	slot := &c.slots[cacheSlot(n)]
	if p := slot.Load(); p != nil {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := slot.Load()
	if p == nil {
		p = build(n)
		slot.Store(p)
	}
	return p
}

// PlanFor returns the shared plan for power-of-two length n, building and
// caching it on first use. Safe for concurrent use; the steady state is
// one atomic load.
func PlanFor(n int) *Plan { return plans.get(n, NewPlan) }

// RealPlanFor returns the shared real-transform plan for power-of-two
// length n >= 2, building and caching it on first use.
func RealPlanFor(n int) *RealPlan { return realPlans.get(n, NewRealPlan) }

// DCTPlanFor returns the shared DCT plan for power-of-two length n >= 2,
// building and caching it on first use.
func DCTPlanFor(n int) *DCTPlan { return dctPlans.get(n, NewDCTPlan) }

// cacheSlot maps a power-of-two length to its cache index.
func cacheSlot(n int) int {
	if !IsPow2(n) {
		panic("cfft: plan length must be a power of two")
	}
	return bits.TrailingZeros(uint(n))
}

// leafLogEven/leafLogOdd pick the iterative-leaf block size for the
// depth-first recursion: 2^12 complex128 = 64 KiB (or 128 KiB for odd
// log2(n), keeping the same parity so the recursion bottoms out exactly
// at the leaf) — small enough to stay L2-resident through all of its
// stages on any modern core.
const (
	leafLogEven = 12
	leafLogOdd  = 13
)

// NewPlan creates a transform plan for length n, which must be a positive
// power of two.
func NewPlan(n int) *Plan {
	if !IsPow2(n) {
		panic("cfft: plan length must be a power of two")
	}
	p := &Plan{
		n:    n,
		logN: bits.TrailingZeros(uint(n)),
		tw:   make([][]float64, bits.TrailingZeros(uint(n))+1),
	}
	leafLog := leafLogEven
	if p.logN&1 == 1 {
		leafLog = leafLogOdd
	}
	if leafLog > p.logN {
		leafLog = p.logN
	}
	p.leaf = 1 << leafLog
	// Fused-stage twiddle tables. The first fused stage is size 4 when
	// log2(n) is even (twiddle-free) and size 8 after the size-2 opener
	// when odd; every subsequent stage quadruples.
	first := 16
	if p.logN&1 == 1 {
		first = 8
	}
	for m := first; m <= n; m <<= 2 {
		q := m >> 2
		t := make([]float64, twGroup*((q+3)/4))
		for k := 0; k < q; k++ {
			at := twGroup*(k>>2) + laneOf[k&3]
			for e := 1; e <= 3; e++ {
				ang := -2 * math.Pi * float64(e*k) / float64(m)
				t[at+8*(e-1)], t[at+8*(e-1)+4] = math.Cos(ang), math.Sin(ang)
			}
		}
		if q == 2 { // rows {0,0,1,1}: see laneOf
			for v := 0; v < twGroup; v += 4 {
				t[v+1], t[v+3] = t[v], t[v+2]
			}
		}
		p.tw[bits.TrailingZeros(uint(m))] = t
	}
	return p
}

// Forward computes the unnormalized forward DFT of src into dst:
//
//	dst[k] = Σ_j src[j] · exp(-2πi jk / n)
//
// dst and src must both have length n; they may be the same slice.
func (p *Plan) Forward(dst, src []complex128) {
	p.transform(dst, src, false)
}

// Inverse computes the inverse DFT of src into dst, normalized by 1/n, so
// that Inverse(Forward(x)) == x up to round-off. dst and src must both have
// length n; they may be the same slice. The 1/n scaling is folded into the
// bit-reversal reorder pass, so no separate scaling sweep runs.
func (p *Plan) Inverse(dst, src []complex128) {
	p.transform(dst, src, true)
}

// fftParMin is the element count above which a transform considers
// dispatching its block recursion to the worker pool.
const fftParMin = 1 << 16

// transform reorders src into dst (folding the inverse 1/n normalization
// into the same pass) and runs the fused radix-4 stage network in place.
func (p *Plan) transform(dst, src []complex128, inverse bool) {
	n := p.n
	if len(dst) != n || len(src) != n {
		panic("cfft: slice length does not match plan")
	}
	p.reorder(dst, src, inverse)
	if n >= fftParMin && parallel.Workers() > 1 {
		p.stagesParallel(dst, inverse)
	} else {
		p.recurse(dst, inverse)
	}
}

// A tile is the 16×16 block of elements whose index a|b|c (4-bit a on
// top, 4-bit c at the bottom) shares the middle bits b: sixteen rows of
// sixteen consecutive elements, n/16 apart. The bit reversal sends index
// a|b|c to rev(c)|rev(b)|rev(a), i.e. tile b onto tile rev(b),
// transposed, with row and column numbers reversed too — so the
// permutation moves whole 256-byte rows between memory and a 4 KiB
// buffer and does its scattered accesses inside that buffer, where the
// walk down a table of reversed indices it replaces missed the cache on
// every element.
type tile [256]complex128

// rev4 is the 4-bit reversal.
var rev4 = [16]uint8{0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15}

// reorderCtx carries one permutation pass through ForGrain1 by value.
type reorderCtx struct {
	p        *Plan
	dst, src []complex128
	inverse  bool
}

// reorderGrain is the fewest units of the tiled pass one worker takes:
// 2^15 elements out of place, 2^16 in place, so the pass splits where the
// stage network does (fftParMin).
const reorderGrain = fftParMin >> 9

// reorder applies the bit-reversal permutation from src to dst, in place
// when they alias, and multiplies by 1/n on the way when inverse
// (linearity lets the normalization ride the permutation pass for free).
// Tiles are independent, so a large pass is split over the pool.
func (p *Plan) reorder(dst, src []complex128, inverse bool) {
	inPlace := &dst[0] == &src[0]
	if p.logN < 8 { // no whole tile
		sh := bits.UintSize - p.logN
		for i := range src {
			j := int(bits.Reverse(uint(i)) >> sh)
			if !inPlace {
				dst[i] = src[j]
			} else if i < j {
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
		if inverse {
			s := complex(1/float64(p.n), 0)
			for i := range dst {
				dst[i] *= s
			}
		}
		return
	}
	units := 1 << (p.logN - 8)
	if inPlace {
		units = max(units/2, 1)
	}
	parallel.ForGrain1(units, reorderGrain, reorderCtx{p, dst, src, inverse}, active.tiles)
}

// walk calls move for units [lo, hi) of a tiled pass. Out of place unit b
// is tile b of src, written to tile rev(b) of dst. In place the tiles
// b < rev(b) trade places and b == rev(b) turns over where it is; of b
// and its complement ^b exactly one is below its reversal (rev(^b) =
// ^rev(b)), or both are palindromes, so unit b — b below half the tiles —
// does whichever of the two pairs is in order, or both palindromes, and
// every unit is the same work. move(b, rb, pair) carries tile b of src to
// tile rb of dst and, when pair, tile rb to tile b, loading both before
// storing either.
func (c reorderCtx) walk(lo, hi int, move func(b, rb int, pair bool)) {
	inPlace := &c.dst[0] == &c.src[0]
	tiles := 1 << (c.p.logN - 8)
	sh := uint(64 - (c.p.logN - 8)) // a shift by 64 is 0: the one tile of n = 256
	for b := lo; b < hi; b++ {
		rb := int(bits.Reverse64(uint64(b)) >> sh)
		switch {
		case !inPlace:
			move(b, rb, false)
		case b < rb:
			move(b, rb, true)
		case b > rb:
			move(tiles-1-b, tiles-1-rb, true)
		default:
			move(b, b, false)
			if tiles > 1 {
				move(tiles-1-b, tiles-1-b, false)
			}
		}
	}
}

// tilesGo permutes units [lo, hi) through two stack tiles. It is the
// reference of kernels.tiles; each implementation calls its own load and
// store directly, so the tiles stay on its stack.
func tilesGo(c reorderCtx, lo, hi int) {
	var t, u tile
	stride := c.p.n >> 4
	c.walk(lo, hi, func(b, rb int, pair bool) {
		loadGo(&t, c.src[b<<4:], stride, c.p.n, c.inverse)
		if pair {
			loadGo(&u, c.src[rb<<4:], stride, c.p.n, c.inverse)
			storeGo(c.dst[b<<4:], &u, stride)
		}
		storeGo(c.dst[rb<<4:], &t, stride)
	})
}

// loadGo reads the tile whose first row starts x into t as tile rev(b)
// will hold it: element (a, c) at (rev4(c), rev4(a)), times 1/n when
// inverse.
func loadGo(t *tile, x []complex128, stride, n int, inverse bool) {
	s := complex(1/float64(n), 0)
	for a := 0; a < 16; a++ {
		row := x[a*stride:][:16]
		ra := int(rev4[a])
		if inverse {
			for c, v := range row {
				t[(int(rev4[c])<<4|ra)&255] = v * s
			}
			continue
		}
		for c, v := range row {
			t[(int(rev4[c])<<4|ra)&255] = v
		}
	}
}

// storeGo writes t's rows to the tile whose first row starts x.
func storeGo(x []complex128, t *tile, stride int) {
	for a := 0; a < 16; a++ {
		copy(x[a*stride:][:16], t[a<<4:])
	}
}

// recurse runs the stage network over one bit-reversed block depth-first:
// all four quarter-blocks are fully transformed before the combining
// stage touches the block, so blocks at or below the leaf size complete
// every stage while still cache-resident. Iterative stage-at-a-time
// execution would stream the full array from memory once per stage;
// depth-first execution streams it roughly once per recursion level.
func (p *Plan) recurse(x []complex128, inverse bool) {
	m := len(x)
	if m <= p.leaf {
		p.leafStages(x, inverse)
		return
	}
	q := m >> 2
	p.recurse(x[:q], inverse)
	p.recurse(x[q:2*q], inverse)
	p.recurse(x[2*q:3*q], inverse)
	p.recurse(x[3*q:], inverse)
	active.radix4(x, p.tw[bits.TrailingZeros(uint(m))], m, 0, q, inverse)
}

// leafStages transforms one cache-resident block iteratively: the opening
// multiplication-free stage (size 2 for odd log, size 4 for even), then
// fused radix-4 stages up to the block size, each one kernel call over
// all of the stage's blocks.
func (p *Plan) leafStages(x []complex128, inverse bool) {
	m := len(x)
	if m == 1 {
		return
	}
	s := 16
	if bits.TrailingZeros(uint(m))&1 == 1 {
		active.stage2(x)
		s = 8
	} else {
		active.stage4(x, inverse)
	}
	for ; s <= m; s <<= 2 {
		active.radix4(x, p.tw[bits.TrailingZeros(uint(s))], s, 0, s>>2, inverse)
	}
}

// parCtx carries a parallel sub-transform dispatch through ForGrain1 by
// value, so the body captures nothing.
type parCtx struct {
	p       *Plan
	x       []complex128
	size    int
	inverse bool
}

// stageCtx carries one combining stage's k-range dispatch.
type stageCtx struct {
	x       []complex128
	tw      []float64
	inverse bool
}

// stagesParallel splits the array into 4^d independent sub-blocks, runs
// each through the serial depth-first recursion on the worker pool, then
// executes the remaining d combining stages with their butterfly rows
// partitioned across workers (rows of one stage are independent).
func (p *Plan) stagesParallel(x []complex128, inverse bool) {
	n := len(x)
	blocks, size := 1, n
	for size > p.leaf && size >= fftParMin && blocks < parallel.Workers() {
		blocks <<= 2
		size >>= 2
	}
	parallel.ForGrain1(blocks, 1, parCtx{p, x, size, inverse},
		func(c parCtx, lo, hi int) {
			for b := lo; b < hi; b++ {
				c.p.recurse(c.x[b*c.size:(b+1)*c.size], c.inverse)
			}
		})
	for m := size << 2; m <= n; m <<= 2 {
		tw := p.tw[bits.TrailingZeros(uint(m))]
		q := m >> 2
		for b := 0; b < n; b += m {
			parallel.ForGrain1(q, 1<<13, stageCtx{x[b : b+m], tw, inverse},
				func(c stageCtx, lo, hi int) {
					active.radix4(c.x, c.tw, len(c.x), lo, hi, c.inverse)
				})
		}
	}
}

// RealPlan performs forward/inverse transforms of real-valued signals of a
// fixed even power-of-two length n, producing the n/2+1 non-redundant
// spectrum bins. It uses the standard trick of transforming the length-n
// real signal as a length-n/2 complex signal followed by an untangling
// pass, halving the transform work relative to a padded complex FFT. The
// packed complex signal z[j] = x[2j] + i·x[2j+1] is the real signal's own
// memory, so the work array of both directions is the caller's []float64.
type RealPlan struct {
	n    int
	half *Plan
	// untw holds exp(-2πi k / n) for the untangle pass, k in [0, n/2], in
	// groups of four: re then im, rows 4g+{0,2,1,3} (laneOf), read through
	// unrow.
	untw []float64
}

// unrow returns the untangle twiddle of bin k.
func unrow(untw []float64, k int) complex128 {
	t := untw[8*(k>>2)+laneOf[k&3]:]
	return complex(t[0], t[4])
}

// NewRealPlan creates a real-transform plan. n must be a power of two >= 2.
func NewRealPlan(n int) *RealPlan {
	if !IsPow2(n) || n < 2 {
		panic("cfft: real plan length must be a power of two >= 2")
	}
	rp := &RealPlan{n: n, half: PlanFor(n / 2), untw: make([]float64, 8*(n/8+1))}
	for k := 0; k <= n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		at := 8*(k>>2) + laneOf[k&3]
		rp.untw[at], rp.untw[at+4] = math.Cos(ang), math.Sin(ang)
	}
	return rp
}

// SpectrumLen returns the number of non-redundant complex bins, n/2+1.
func (rp *RealPlan) SpectrumLen() int { return rp.n/2 + 1 }

// packed views a real signal as the half-length complex signal of its
// (even, odd) sample pairs.
func packed(x []float64) []complex128 {
	return unsafe.Slice((*complex128)(unsafe.Pointer(unsafe.SliceData(x))), len(x)/2)
}

// Forward computes the non-redundant half spectrum of the real signal x.
// spec must have length n/2+1. spec[0] and spec[n/2] have zero imaginary
// parts (DC and Nyquist bins). x is not modified.
func (rp *RealPlan) Forward(spec []complex128, x []float64) {
	wb := scratch.Float64s(len(x))
	defer scratch.PutFloat64s(wb)
	copy(*wb, x)
	rp.ForwardInPlace(spec, *wb)
}

// ForwardInPlace is Forward with x as the work array: x is overwritten.
// A caller that builds the signal itself (the sparsifier's front end)
// saves Forward's copy.
func (rp *RealPlan) ForwardInPlace(spec []complex128, x []float64) {
	n := rp.n
	if len(x) != n || len(spec) != n/2+1 {
		panic("cfft: bad real forward lengths")
	}
	z := packed(x)
	rp.half.Forward(z, z)
	active.untangle(spec, z, rp.untw)
}

// Inverse reconstructs the real signal from its half spectrum (normalized:
// Inverse(Forward(x)) == x up to round-off). x must have length n, spec
// length n/2+1. spec is not modified; x is the only work array.
func (rp *RealPlan) Inverse(x []float64, spec []complex128) {
	n := rp.n
	if len(x) != n || len(spec) != n/2+1 {
		panic("cfft: bad real inverse lengths")
	}
	z := packed(x)
	active.retangle(z, spec, rp.untw)
	rp.half.Inverse(z, z)
}
