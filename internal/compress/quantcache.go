package compress

import "fftgrad/internal/quant"

// tuneSample is the number of coefficients the quantizer tuner looks at.
// Tuning cost is O(m · len(sample)), so the sample is capped; it is drawn
// with a stride across the whole kept set because the kept coefficients
// arrive in frequency order — a prefix would see only the lowest-frequency
// (largest-magnitude) bins and bias m toward too coarse a mantissa split.
const tuneSample = 4096

// quantCache is the encode-side range quantizer of the transform codec.
// It re-tunes only when the coefficient range drifts 2x from the cached
// tuning (the paper estimates the range once from early iterations), in
// place and on its own sample array, so a re-tune allocates nothing. The
// decode side keeps nothing: a decoder is a pure function of the header's
// five words, rebuilt per call into the decode workspace. Every encode
// holds the encode workspace's lock, which serializes the cache's users.
type quantCache struct {
	enc     quant.RangeQuantizer
	tunedAt float64 // absmax enc was tuned for, 0 before the first tuning
	sample  [tuneSample]float32
}

// encoder returns a range quantizer covering [-absMax, absMax], re-tuning
// on vals only when the range drifts by more than 2x from the cached one.
func (qc *quantCache) encoder(bits int, absMax float64, vals []float32) (quant.RangeQuantizer, error) {
	if qc.tunedAt > 0 && absMax <= qc.tunedAt*2 && absMax >= qc.tunedAt/2 {
		return qc.enc, nil
	}
	sample := vals
	if len(vals) > tuneSample {
		sample = qc.sample[:]
		// Even stride over the whole set; i*len/count never repeats an
		// index because count <= len.
		for i := range sample {
			sample[i] = vals[i*len(vals)/tuneSample]
		}
	}
	lim := float32(absMax * 1.001)
	if err := quant.TuneInto(&qc.enc, bits, -lim, lim, sample); err != nil {
		return quant.RangeQuantizer{}, err
	}
	qc.tunedAt = absMax
	return qc.enc, nil
}
