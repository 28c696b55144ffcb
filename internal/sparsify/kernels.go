package sparsify

// kernels is the set of element-wise sweeps over the bins and the inverse
// signal that Analyze and Synthesize spend their non-transform time in.
// The Go functions are the reference; a platform file may replace the
// active set at init with one producing the same bits
// (kernels_amd64.go), as in package cfft.
type kernels struct {
	// mags fills mags[lo:hi] with |bins[i]|² (a parallel.For2 body).
	mags func(mags []float64, bins []complex128, lo, hi int)
	// words fills len(gt) whole 64-bin words of the above-threshold and
	// at-threshold masks from mags[:64·len(gt)].
	words func(gt, eq []uint64, mags []float64, thr float64)
	// narrow rounds src[lo:hi] to float32 into dst (a parallel.For2 body).
	narrow func(dst []float32, src []float64, lo, hi int)
	// narrowAcc folds the rounded src[lo:hi] into a running sum:
	// dst[i] = (dst[i] + wt·float32(src[i]))·scale (a parallel.For3 body).
	narrowAcc func(dst []float32, src []float64, a accum, lo, hi int)
}

// accum is the (wt, scale) pair of SynthesizeAccumulate.
type accum struct{ wt, scale float32 }

var (
	scalar = kernels{magsComplex, maskWords, narrowF64, narrowAccF64}
	// active is chosen once, at package init; only the bit-identity tests
	// assign it afterwards.
	active = scalar
)

func magsComplex(mags []float64, bins []complex128, lo, hi int) {
	for i := lo; i < hi; i++ {
		re, im := real(bins[i]), imag(bins[i])
		mags[i] = re*re + im*im // monotone in |z|; avoids sqrt
	}
}

func maskWords(gt, eq []uint64, mags []float64, thr float64) {
	for w := range gt {
		gt[w], eq[w] = maskWord(mags[w<<6:][:64], thr)
	}
}

// maskWord is one mask word over up to 64 magnitudes: bit i of gtW is
// mags[i] > thr, of eqW mags[i] == thr (a NaN sets neither).
func maskWord(mags []float64, thr float64) (gtW, eqW uint64) {
	for i, m := range mags {
		// Both bits as values, not branches: a bin clears the threshold
		// about one time in 1/(1-θ), unpredictably.
		var g, e uint64
		if m > thr {
			g = 1
		}
		if m == thr {
			e = 1
		}
		gtW |= g << (uint(i) & 63)
		eqW |= e << (uint(i) & 63)
	}
	return gtW, eqW
}

func narrowF64(dst []float32, src []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = float32(src[i])
	}
}

func narrowAccF64(dst []float32, src []float64, a accum, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = (dst[i] + a.wt*float32(src[i])) * a.scale
	}
}
