package compress

import (
	"math"
	"sync"

	"fftgrad/internal/quant"
	"fftgrad/internal/scratch"
)

// tuneSample is the number of coefficients the quantizer tuner looks at.
// Tuning cost is O(m · len(sample)), so the sample is capped; it is drawn
// with a stride across the whole kept set because the kept coefficients
// arrive in frequency order — a prefix would see only the lowest-frequency
// (largest-magnitude) bins and bias m toward too coarse a mantissa split.
const tuneSample = 4096

// decSlots is the number of decode-side quantizers a codec remembers.
// Every sender tunes its own range, so a receiver sees up to P distinct
// parameter sets per round, in rank order; with fewer slots than senders
// round-robin eviction would miss every time. 32 covers the paper's
// largest run (P = 32); slots fill lazily, so small jobs pay for what
// they use.
const decSlots = 32

// quantCache holds the encode- and decode-side range quantizers shared by
// the FFT and DCT compressors. Both sides cache: the encoder re-tunes only
// when the coefficient range drifts 2x from the cached tuning (the paper
// estimates the range once from early iterations), and the decoder keeps
// the last decSlots parameter sets it was asked for, each with its decode
// table — in steady state every iteration reuses both. Quantizers are
// immutable after construction, so handing a cached pointer to concurrent
// encode/decode calls is safe.
type quantCache struct {
	mu      sync.Mutex
	enc     *quant.RangeQuantizer
	tunedAt float64 // absmax the cached encoder was tuned for
	decMu   sync.Mutex
	dec     [decSlots]*quant.Decoder
	decKey  [decSlots][5]uint32 // raw header words each decoder was built from
	decNext int                 // slot the next miss takes (round-robin)
}

// encoder returns a range quantizer covering [-absMax, absMax], re-tuning
// on vals only when the range drifts by more than 2x from the cached one.
func (qc *quantCache) encoder(bits int, absMax float64, vals []float32) (*quant.RangeQuantizer, error) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	if qc.enc != nil && absMax <= qc.tunedAt*2 && absMax >= qc.tunedAt/2 {
		return qc.enc, nil
	}
	sample := vals
	var sb *[]float32
	if len(vals) > tuneSample {
		sb = scratch.Float32s(tuneSample)
		sample = *sb
		// Even stride over the whole set; i*len/count never repeats an
		// index because count <= len.
		for i := range sample {
			sample[i] = vals[i*len(vals)/tuneSample]
		}
	}
	lim := float32(absMax * 1.001)
	q, err := quant.Tune(bits, -lim, lim, sample)
	if sb != nil {
		scratch.PutFloat32s(sb)
	}
	if err != nil {
		return nil, err
	}
	qc.enc = q
	qc.tunedAt = absMax
	return q, nil
}

// decoder returns the quantizer described by header words hdr[3:8] —
// quantBits | quantM | f32 eps | f32 min | f32 max — building it on a miss.
// The cache key is the raw header bits, not the constructed quantizer's
// fields, because construction snaps Eps to a representable value.
func (qc *quantCache) decoder(hdr []uint32) (*quant.Decoder, error) {
	key := [5]uint32{hdr[3], hdr[4], hdr[5], hdr[6], hdr[7]}
	qc.decMu.Lock()
	defer qc.decMu.Unlock()
	for i, d := range qc.dec {
		if d == nil {
			break
		}
		if qc.decKey[i] == key {
			return d, nil
		}
	}
	d, err := quant.NewDecoder(
		int(hdr[3]), int(hdr[4]),
		math.Float32frombits(hdr[5]), math.Float32frombits(hdr[6]), math.Float32frombits(hdr[7]))
	if err != nil {
		return nil, err
	}
	qc.dec[qc.decNext], qc.decKey[qc.decNext] = d, key
	qc.decNext = (qc.decNext + 1) % decSlots
	return d, nil
}
