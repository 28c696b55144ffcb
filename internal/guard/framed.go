package guard

import "fftgrad/internal/compress"

// Framed wraps a compressor so every message it emits carries the guard
// frame header and every message it decodes is integrity-checked before
// the inner decoder sees a single payload byte. The frame is built in
// place around the inner compressor's append path, so a zero-alloc
// inner round trip stays zero-alloc with CRC framing on.
//
// Framed is per-rank state (the pending fingerprint is one-shot
// per-message), like the compressors it wraps. Optional capabilities of
// the wrapped stack (θ schedules, stage timers, error-feedback residuals)
// are reached through Inner by compress.As. Decode-accumulate is the
// exception: it reads the wire, so Framed implements it itself and checks
// the frame first.
type Framed struct {
	inner compress.Compressor
	crc   bool

	fp    uint64
	hasFP bool
}

// NewFramed wraps inner; withCRC selects whether frames carry a CRC32C
// or just the versioned header (fingerprints can ride either way).
func NewFramed(inner compress.Compressor, withCRC bool) *Framed {
	return &Framed{inner: inner, crc: withCRC}
}

// Inner returns the wrapped compressor.
func (f *Framed) Inner() compress.Compressor { return f.inner }

// Name implements compress.Compressor.
func (f *Framed) Name() string {
	if f.crc {
		return f.inner.Name() + "+crc"
	}
	return f.inner.Name() + "+frame"
}

// SetNextFingerprint attaches fp to the next compressed message (one
// shot). dist calls this on drift-check iterations so the fingerprint
// rides the existing gradient exchange instead of a second collective.
func (f *Framed) SetNextFingerprint(fp uint64) {
	f.fp, f.hasFP = fp, true
}

// AppendCompress implements compress.Compressor: header, then the inner
// compressor's payload appended in place, then the CRC patched in.
func (f *Framed) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	start := len(dst)
	dst = appendHeader(dst, f.crc, f.fp, f.hasFP)
	f.hasFP = false
	out, err := f.inner.AppendCompress(dst, grad)
	if err != nil {
		return dst[:start], err
	}
	return sealFrame(out, start), nil
}

// DecompressInto implements compress.Compressor. The integrity check
// runs first: a corrupt frame returns an error wrapping comm.ErrCorrupt
// and the inner decoder never sees the payload.
func (f *Framed) DecompressInto(dst []float32, msg []byte) error {
	payload, err := Unframe(msg)
	if err != nil {
		return err
	}
	return f.inner.DecompressInto(dst, payload)
}

// AccumulateInto implements compress.Accumulator: the same integrity
// check first, then the inner codec folds the payload into dst.
func (f *Framed) AccumulateInto(dst []float32, msg []byte, wt, scale float32) error {
	payload, err := Unframe(msg)
	if err != nil {
		return err
	}
	return compress.AccumulateInto(f.inner, dst, payload, wt, scale)
}
