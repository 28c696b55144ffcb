package trace

import "sync/atomic"

// SeqRing is a fixed-capacity ring of fixed-width records under a
// seqlock, overwriting its oldest record on wraparound. A writer claims
// an index with one atomic add, zeroes the slot's stamp, stores each
// word atomically and republishes the stamp; a reader accepts a slot
// only when the stamp is unchanged across the word loads, so a
// half-written (or wrapped-over) record can never leak into a snapshot.
// The tracer keeps one per rank for its 5-word events, the iteration
// profiler (internal/obs) one per rank for its 13-word records.
type SeqRing struct {
	pos   atomic.Uint64
	mask  uint64
	width int
	// Slot i is words[i*(width+1):][:width+1]: the stamp (0 = empty or
	// in flight, else claim index + 1), then the record.
	words []atomic.Uint64
}

// NewSeqRing creates a ring retaining the last capacity records (rounded
// up to a power of two) of width words each.
func NewSeqRing(capacity, width int) *SeqRing {
	capPow2 := 1
	for capPow2 < capacity {
		capPow2 <<= 1
	}
	return &SeqRing{
		mask:  uint64(capPow2 - 1),
		width: width,
		words: make([]atomic.Uint64, capPow2*(width+1)),
	}
}

// Cap returns the number of records the ring retains.
func (r *SeqRing) Cap() int { return int(r.mask) + 1 }

// Put records rec, which must be exactly the ring's width. Lock-free and
// allocation-free; any number of writers may call it concurrently.
func (r *SeqRing) Put(rec []uint64) {
	idx := r.pos.Add(1) - 1
	slot := r.words[int(idx&r.mask)*(r.width+1):][:r.width+1]
	slot[0].Store(0) // invalidate while the words are in flux
	for i, w := range rec {
		slot[1+i].Store(w)
	}
	slot[0].Store(idx + 1)
}

// Each calls visit with every consistently published record, in slot
// order; rec is reused between calls. Safe while writers keep putting:
// a slot whose stamp moves during the read is retried up to four times,
// then skipped, never torn.
func (r *SeqRing) Each(visit func(rec []uint64)) {
	rec := make([]uint64, r.width)
	for base := 0; base < len(r.words); base += r.width + 1 {
		slot := r.words[base:][:r.width+1]
		for attempt := 0; attempt < 4; attempt++ {
			stamp := slot[0].Load()
			if stamp == 0 {
				break
			}
			for i := range rec {
				rec[i] = slot[1+i].Load()
			}
			if slot[0].Load() == stamp {
				visit(rec)
				break
			}
		}
	}
}
