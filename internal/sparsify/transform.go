package sparsify

import (
	"fmt"
	"math"
	mbits "math/bits"
	"time"

	"fftgrad/internal/cfft"
	"fftgrad/internal/f16"
	"fftgrad/internal/parallel"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/topk"
)

// Transform describes one real-signal transform the sparsifier can work
// in. Everything but four leaves — the plan call, the magnitude fill, the
// per-chunk gather and the decode-side scatter — is shared; the
// leaves are picked once per call or once per 64-word chunk, never per
// element. Plans come from the process-wide cfft cache and every
// temporary lives in the caller's Spectrum, so a Transform is safe for
// concurrent use on distinct spectra and, with a reused Spectrum,
// allocation-free in steady state.
type Transform struct {
	// Width is the number of float values one coefficient bin carries:
	// 2 (re, im) for the FFT, 1 for the DCT.
	Width int
	real  bool // N real coefficients instead of N/2+1 complex bins
}

var (
	// FFT is the paper's transform: the N/2+1 non-redundant complex bins
	// of the real FFT, ranked by |z|².
	FFT = &Transform{Width: 2}
	// DCT is the real-coefficient ablation: the N coefficients of the
	// type-II DCT, ranked by |v| (each kept bin costs one value, not two).
	DCT = &Transform{Width: 1, real: true}
)

// Bins returns the number of coefficient bins of an n-point transform.
func (t *Transform) Bins(n int) int {
	if t.real {
		return n
	}
	return n/2 + 1
}

// Spectrum is the sparsified transform-domain representation of a
// gradient. L, N, Kept, Mask and Vals are exactly what a codec puts on
// the wire; the dense coefficient array behind them is what the inverse
// transform reads (Synthesize fills it with zeros at every dropped bin;
// Analyze leaves it as the forward transform wrote it). A Spectrum is
// reused across calls and transforms: every slice keeps its capacity.
// It owns every buffer a call works in, so one Spectrum serves one call
// at a time.
type Spectrum struct {
	L      int       // original gradient length
	N      int       // padded power-of-two transform length
	Kept   int       // number of surviving bins
	Mask   []uint64  // keep bitmap over the bins
	Vals   []float32 // surviving coefficients in bin order, Width floats per bin
	AbsMax float64   // max |v| over Vals (set by Analyze)

	// cbins is the FFT's half spectrum, N/2+1 bins; under the DCT it
	// holds the mirrored 2N-point signal's, N+1 bins, on the way to and
	// from rbins, the N coefficients.
	cbins []complex128
	rbins []float64
	// work is the transform's real array, 2·nb long for nb bins: N+2 for
	// the FFT, 2N for the DCT (which mirrors the signal behind itself).
	// It holds the widened signal, then the bins' magnitudes beside the
	// threshold search's candidates, and on the way back the inverse's
	// output.
	work []float64
	// The select sweep's per-call state: the at-threshold mask (one word
	// per Mask word), the per-chunk counts that become output offsets, and
	// the per-chunk max |v|.
	eq    []uint64
	cnt   []int
	maxes []float64
}

// packChunkWords is the cache-block width of the fused select+gather
// sweep, in 64-bin bitmap words: 64 words = 4096 bins = 64 KiB of
// complex128 bins plus 32 KiB of magnitudes per chunk, sized to stay
// L2-resident while a chunk is masked and gathered in one pass.
const packChunkWords = 64

// passACtx/passBCtx thread the fused-sweep state through ForGrain1 by
// value so the bodies capture nothing.
type passACtx struct {
	mags         []float64
	mask, eq     []uint64
	gtCnt, eqCnt []int
	thr          float64
	nb           int
}

type passBCtx struct {
	t         *Transform
	spec      *Spectrum
	eq        []uint64
	off, take []int
	maxes     []float64
}

// Analyze transforms x (zero-padded to cfft.PaddedLen, so any length
// including 0 and 1 is accepted) and keeps only the top-(1-θ) fraction of
// bins by magnitude: it fills spec's shape, keep bitmap, packed surviving
// values and their AbsMax. The dense coefficients are left as transformed,
// dropped bins included: nothing on the codec path reads them again. x is
// not modified. Ties at the threshold go to the
// lowest index, exactly topk.MaskTopKInto's rule (the property test pins
// the sweep against that unfused reference, bit for bit).
//
// st (nil disables timing) sees the f32→f64 widening as StageConvert
// (Tm), the forward transform as StageTransform (Tf), the magnitude +
// threshold + mask sweep as StageSelect (Ts) and the gather sweep as
// StagePack, all normalized to the gradient's byte size — the terms the
// Sec. 3.3 model prices.
//
// Select and gather run cache-blocked: instead of one full pass to build
// the mask and one to gather survivors — each streaming all bins from
// memory — the bins are cut into packChunkWords-word chunks. Pass A
// builds each chunk's above-threshold and at-threshold masks; a serial
// prefix over the per-chunk counts resolves the exact-k tie fill and
// assigns every chunk its output offset; pass B revisits each chunk —
// still warm in cache — and gathers its survivors by a walk over the set
// mask bits.
func (t *Transform) Analyze(spec *Spectrum, x []float32, theta float64, st *telemetry.StageTimer) {
	t.analyze(spec, x, theta, false, st)
}

// AnalyzeHalf is Analyze of x rounded to half precision — the paper's
// fp32→fp16 conversion in front of the FFT — with the rounding folded into
// the widening pass instead of a pass and a copy of its own.
func (t *Transform) AnalyzeHalf(spec *Spectrum, x []float32, theta float64, st *telemetry.StageTimer) {
	t.analyze(spec, x, theta, true, st)
}

func (t *Transform) analyze(spec *Spectrum, x []float32, theta float64, half bool, st *telemetry.StageTimer) {
	l := len(x)
	gradBytes := 4 * l
	n := cfft.PaddedLen(l)
	nb := t.Bins(n)
	k := KeepCount(nb, theta)
	words := (nb + 63) / 64
	spec.L, spec.N = l, n
	spec.Mask = grow(spec.Mask, words)
	spec.Vals = grow(spec.Vals, t.Width*k)

	// The front end: one pass takes the gradient — through half precision
	// or not — to float64, straight into the array the transform works in.
	spec.work = grow(spec.work, 2*nb)
	work := spec.work
	t0 := time.Now()
	if half {
		parallel.For2(l, work, x, roundWidenF32)
	} else {
		parallel.For2(l, work, x, widenF32)
	}
	clear(work[l:n])
	st.ObserveSince(telemetry.StageConvert, gradBytes, t0)
	t0 = time.Now()
	if t.real {
		spec.rbins = grow(spec.rbins, nb)
		spec.cbins = grow(spec.cbins, nb+1)
		cfft.DCTPlanFor(n).ForwardInPlace(spec.rbins, work, spec.cbins)
	} else {
		spec.cbins = grow(spec.cbins, nb)
		cfft.RealPlanFor(n).ForwardInPlace(spec.cbins, work[:n])
	}
	st.ObserveSince(telemetry.StageTransform, gradBytes, t0)

	t0 = time.Now()
	chunks := (words + packChunkWords - 1) / packChunkWords
	spec.eq = grow(spec.eq, words)
	spec.cnt = grow(spec.cnt, 2*chunks)
	spec.maxes = grow(spec.maxes, chunks)
	gtCnt, eqCnt := spec.cnt[:chunks], spec.cnt[chunks:]
	switch {
	case k <= 0: // nothing survives: empty mask, pass B gathers nothing
		clear(spec.Mask)
		clear(spec.cnt)
	case k >= nb: // everything survives: full mask, no threshold search
		for w := range spec.Mask {
			spec.Mask[w] = ^uint64(0)
		}
		if tail := uint(nb & 63); tail != 0 {
			spec.Mask[words-1] = 1<<tail - 1
		}
		for ch := range gtCnt {
			wlo, whi := parallel.ChunkBounds(ch, packChunkWords, words)
			gtCnt[ch], eqCnt[ch] = min(whi<<6, nb)-(wlo<<6), 0
		}
	default:
		// The signal is dead once transformed: the magnitudes overwrite
		// it, and the threshold search gathers into the rest.
		mags := work[:nb]
		if t.real {
			parallel.For2(nb, mags, spec.rbins, magsReal)
		} else {
			parallel.For2(nb, mags, spec.cbins, active.mags)
		}
		thr := topk.KthLargestBucketInto(mags, work[nb:], k)
		parallel.ForGrain1(chunks, 1,
			passACtx{mags: mags, mask: spec.Mask, eq: spec.eq, gtCnt: gtCnt, eqCnt: eqCnt, thr: thr, nb: nb},
			passA)
	}

	// Serial middle: resolve the exact-k tie fill and assign offsets.
	// Everything above the threshold is kept; remaining slots are filled
	// with at-threshold bins in index order (chunks are index-ordered, so
	// a running "still needed" count distributes the fill). gtCnt becomes
	// each chunk's output offset and eqCnt its tie-fill allowance.
	totalGt := 0
	for _, g := range gtCnt {
		totalGt += g
	}
	needEq := k - totalGt
	off := 0
	for c := 0; c < chunks; c++ {
		take := min(eqCnt[c], needEq)
		needEq -= take
		keep := gtCnt[c] + take
		gtCnt[c], eqCnt[c] = off, take
		off += keep
	}
	st.ObserveSince(telemetry.StageSelect, gradBytes, t0)

	// Pass B: finish each chunk's mask, gather survivors.
	t0 = time.Now()
	parallel.ForGrain1(chunks, 1,
		passBCtx{t: t, spec: spec, eq: spec.eq, off: gtCnt, take: eqCnt, maxes: spec.maxes},
		passB)
	spec.AbsMax = 0
	for _, m := range spec.maxes {
		spec.AbsMax = max(spec.AbsMax, m)
	}
	// off is the number of bins actually kept — equal to k whenever the
	// selector's threshold is exact (always, for KthLargestBucket).
	spec.Kept = off
	spec.Vals = spec.Vals[:t.Width*off]
	st.ObserveSince(telemetry.StagePack, gradBytes, t0)
}

// passA fills chunks [clo, chi) of the above-threshold mask and the
// at-threshold mask, with their per-chunk popcounts.
func passA(c passACtx, clo, chi int) {
	for ch := clo; ch < chi; ch++ {
		wlo, whi := parallel.ChunkBounds(ch, packChunkWords, len(c.mask))
		full := min(whi, c.nb>>6) // words with all 64 bins present
		active.words(c.mask[wlo:full], c.eq[wlo:full], c.mags[wlo<<6:full<<6], c.thr)
		if full < whi {
			c.mask[full], c.eq[full] = maskWord(c.mags[full<<6:c.nb], c.thr)
		}
		gt, eqn := 0, 0
		for w := wlo; w < whi; w++ {
			gt += mbits.OnesCount64(c.mask[w])
			eqn += mbits.OnesCount64(c.eq[w])
		}
		c.gtCnt[ch], c.eqCnt[ch] = gt, eqn
	}
}

// passB completes chunks [clo, chi): the chunk's tie-fill allowance goes
// to its earliest at-threshold bins, then the transform's leaf gathers the
// survivors at the chunk's output offset.
func passB(c passBCtx, clo, chi int) {
	mask := c.spec.Mask
	for ch := clo; ch < chi; ch++ {
		wlo, whi := parallel.ChunkBounds(ch, packChunkWords, len(mask))
		take := c.take[ch]
		for w := wlo; w < whi && take > 0; w++ {
			eqW := c.eq[w]
			if cnt := mbits.OnesCount64(eqW); take >= cnt {
				mask[w] |= eqW
				take -= cnt
				continue
			}
			for ; take > 0; take-- {
				low := eqW & -eqW
				mask[w] |= low
				eqW &^= low
			}
		}
		vals := c.spec.Vals[c.t.Width*c.off[ch]:]
		if c.t.real {
			c.maxes[ch] = keepReal(c.spec.rbins, mask, wlo, whi, vals)
		} else {
			c.maxes[ch] = keepComplex(c.spec.cbins, mask, wlo, whi, vals)
		}
	}
}

// keepComplex packs the surviving bins of mask words [wlo, whi) into vals
// as (re, im) float32 pairs, returning their max absolute value. It walks
// the set bits, so it touches only the bins it keeps.
func keepComplex(bins []complex128, mask []uint64, wlo, whi int, vals []float32) float64 {
	var absMax float64
	vi := 0
	for w := wlo; w < whi; w++ {
		for m := mask[w]; m != 0; m &= m - 1 {
			b := bins[w<<6+mbits.TrailingZeros64(m)]
			re, im := float32(real(b)), float32(imag(b))
			vals[vi], vals[vi+1] = re, im
			vi += 2
			if a := math.Abs(float64(re)); a > absMax {
				absMax = a
			}
			if a := math.Abs(float64(im)); a > absMax {
				absMax = a
			}
		}
	}
	return absMax
}

// keepReal is keepComplex for real coefficients, one float32 per bin.
func keepReal(bins []float64, mask []uint64, wlo, whi int, vals []float32) float64 {
	var absMax float64
	vi := 0
	for w := wlo; w < whi; w++ {
		for m := mask[w]; m != 0; m &= m - 1 {
			v := float32(bins[w<<6+mbits.TrailingZeros64(m)])
			vals[vi] = v
			vi++
			if a := math.Abs(float64(v)); a > absMax {
				absMax = a
			}
		}
	}
	return absMax
}

// zeroDropped clears the dense coefficients of every bin the mask drops,
// by a walk over the mask's complement. Analyze leaves them as the
// transform produced them — the codec reads only Mask and Vals — so the
// one caller that inverts the dense array itself does this first.
func (t *Transform) zeroDropped(spec *Spectrum) {
	nb := t.Bins(spec.N)
	for w, m := range spec.Mask {
		d := ^m
		if w == len(spec.Mask)-1 && nb&63 != 0 {
			d &= 1<<uint(nb&63) - 1
		}
		for ; d != 0; d &= d - 1 {
			i := w<<6 + mbits.TrailingZeros64(d)
			if t.real {
				spec.rbins[i] = 0
			} else {
				spec.cbins[i] = 0
			}
		}
	}
}

// Synthesize is the receiver's half: it rebuilds the dense coefficients
// from a decoded message — spec.L, N, Kept, Mask and Vals as read off the
// wire — and inverse-transforms them into dst, which must have length
// spec.L. A shape that no Analyze could have produced (N not the padded
// length's power of two, Mask or Vals of the wrong size, bitmap popcount
// other than Kept) is an error, never a panic, and dst is not written.
// st sees the scatter as StagePack, the inverse transform as
// StageTransform and the f64→f32 narrowing as StageConvert (nil disables
// timing).
func (t *Transform) Synthesize(dst []float32, spec *Spectrum, st *telemetry.StageTimer) error {
	return t.synthesize(dst, spec, nil, st)
}

// SynthesizeAccumulate is Synthesize folded into a running sum: with x
// the signal Synthesize would write, it sets
// dst[i] = (dst[i] + wt·x[i])·scale in the narrowing pass itself, with
// those float32 operations in that order.
func (t *Transform) SynthesizeAccumulate(dst []float32, spec *Spectrum, wt, scale float32, st *telemetry.StageTimer) error {
	return t.synthesize(dst, spec, &accum{wt, scale}, st)
}

func (t *Transform) synthesize(dst []float32, spec *Spectrum, acc *accum, st *telemetry.StageTimer) error {
	if len(dst) != spec.L {
		return fmt.Errorf("sparsify: dst length %d != gradient length %d", len(dst), spec.L)
	}
	if spec.N < 2 || !cfft.IsPow2(spec.N) || spec.L > spec.N {
		return fmt.Errorf("sparsify: bad padded length %d for gradient length %d", spec.N, spec.L)
	}
	nb := t.Bins(spec.N)
	words := (nb + 63) / 64
	if len(spec.Mask) != words || len(spec.Vals) != t.Width*spec.Kept {
		return fmt.Errorf("sparsify: %d mask words and %d values inconsistent with N=%d, kept=%d",
			len(spec.Mask), len(spec.Vals), spec.N, spec.Kept)
	}
	t0 := time.Now()
	// Bits past the last bin are ignored, as a bit-by-bit walk would.
	if tail := uint(nb & 63); tail != 0 {
		spec.Mask[words-1] &= 1<<tail - 1
	}
	pop := 0
	for _, w := range spec.Mask {
		pop += mbits.OnesCount64(w)
	}
	if pop != spec.Kept {
		return fmt.Errorf("sparsify: bitmap popcount %d != kept %d", pop, spec.Kept)
	}
	if t.real {
		spec.rbins = grow(spec.rbins, nb)
		scatterReal(spec.rbins, spec.Mask, spec.Vals)
	} else {
		spec.cbins = grow(spec.cbins, nb)
		scatterComplex(spec.cbins, spec.Mask, spec.Vals)
	}
	st.ObserveSince(telemetry.StagePack, 4*spec.L, t0)
	t.inverse(dst, spec, acc, st)
	return nil
}

// scatterComplex rebuilds every bin, one 64-bin mask word at a time:
// the word's bins are zeroed and its masked bins then take the next packed
// (re, im) pairs while the word's 1 KiB is still in L1, so each bin
// leaves the core once. (Zeroing the whole spectrum first streamed 4 MB
// through the cache twice; deciding value-or-zero per bin mispredicts a
// branch on every kept bin and is slower than both.) The caller has
// checked that mask's popcount matches len(vals)/2, that no bit lies past
// the bins and that len(mask) = ⌈len(bins)/64⌉.
func scatterComplex(bins []complex128, mask []uint64, vals []float32) {
	vi := 0
	for w, m := range mask {
		word := bins[w<<6 : min(w<<6+64, len(bins))]
		clear(word)
		for ; m != 0; m &= m - 1 {
			word[mbits.TrailingZeros64(m)] = complex(float64(vals[vi]), float64(vals[vi+1]))
			vi += 2
		}
	}
}

// scatterReal is scatterComplex for one real value per bin.
func scatterReal(bins []float64, mask []uint64, vals []float32) {
	vi := 0
	for w, m := range mask {
		word := bins[w<<6 : min(w<<6+64, len(bins))]
		clear(word)
		for ; m != 0; m &= m - 1 {
			word[mbits.TrailingZeros64(m)] = float64(vals[vi])
			vi++
		}
	}
}

// inverse transforms spec's dense coefficients back into dst (length
// spec.L), through the spectrum's work array: narrowed into it, or folded
// into it when acc is set.
func (t *Transform) inverse(dst []float32, spec *Spectrum, acc *accum, st *telemetry.StageTimer) {
	spec.work = grow(spec.work, 2*t.Bins(spec.N))
	sig := spec.work[:spec.N]
	t0 := time.Now()
	if t.real {
		spec.cbins = grow(spec.cbins, spec.N+1)
		cfft.DCTPlanFor(spec.N).Inverse(spec.work, spec.rbins, spec.cbins)
	} else {
		cfft.RealPlanFor(spec.N).Inverse(sig, spec.cbins)
	}
	st.ObserveSince(telemetry.StageTransform, 4*spec.L, t0)
	t0 = time.Now()
	if acc != nil {
		parallel.For3(spec.L, dst, sig, *acc, active.narrowAcc)
	} else {
		parallel.For2(spec.L, dst, sig, active.narrow)
	}
	st.ObserveSince(telemetry.StageConvert, 4*spec.L, t0)
}

// Roundtrip sparsifies x at ratio theta in the transform domain and
// returns the reconstruction from the unquantised coefficients — the
// "FFT Top-k" curve of Fig. 5.
func (t *Transform) Roundtrip(x []float32, theta float64) []float32 {
	var spec Spectrum
	t.Analyze(&spec, x, theta, nil)
	t.zeroDropped(&spec)
	out := make([]float32, len(x))
	t.inverse(out, &spec, nil, nil)
	return out
}

// The capture-free bodies of the element-wise passes (parallel.For2 keeps
// them alloc-free).
func widenF32(dst []float64, src []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = float64(src[i])
	}
}

func roundWidenF32(dst []float64, src []float32, lo, hi int) {
	f16.RoundWiden(dst[lo:hi], src[lo:hi])
}

func magsReal(mags, bins []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		mags[i] = math.Abs(bins[i])
	}
}

// grow resizes b to length n, reallocating only when capacity is
// insufficient. Contents are unspecified (callers fully overwrite).
func grow[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}
