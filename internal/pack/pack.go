// Package pack converts irregular sparse vectors into dense messages and
// back, implementing the parallel packing algorithm of Sec. 3.2:
//
//  1. build a status vector marking non-zero (or mask-selected) elements,
//  2. parallel prefix-sum the status vector into a location vector,
//  3. scatter surviving elements to dense[location[i]-1].
//
// The status vector travels with the message as a bitmap (1 bit per source
// element), which is what makes very aggressive sparsification (θ < 0.05,
// compression ratio > 20 on the value payload) stop paying off — Fig. 6.
package pack

import (
	"math"
	"math/bits"

	"fftgrad/internal/parallel"
	"fftgrad/internal/scratch"
)

// Sparse is a packed sparse vector: a bitmap marking which of the N source
// positions survived, plus the surviving values in position order.
type Sparse struct {
	N      int       // original (unpacked) length
	Bitmap []uint64  // ⌈N/64⌉ words; bit i set ⇒ position i kept
	Values []float32 // packed surviving values, len == popcount(Bitmap)
}

// BitmapWords returns the number of uint64 words needed for n bits.
func BitmapWords(n int) int { return (n + 63) / 64 }

// WireBytes returns the size in bytes of the packed message: the bitmap
// plus the dense values. This is the quantity the compression-ratio
// accounting in Fig. 6 uses (before any further quantization of Values).
func (s *Sparse) WireBytes() int {
	return len(s.Bitmap)*8 + len(s.Values)*4
}

// nzBit returns 1 if v != 0 and 0 otherwise, without a branch: the sign
// bit is shifted out (so +0 and -0 both map to bit pattern 0, matching
// float comparison semantics — NaNs and subnormals are non-zero), and
// (b | -b) has its top bit set exactly when b is non-zero.
func nzBit(v float32) uint64 {
	b := math.Float32bits(v) << 1
	return uint64((b | -b) >> 31)
}

// PackNonzero packs every non-zero element of x. Parallel. The status
// bitmap is built branch-free, 8 elements per step, so the word assembly
// runs at memory speed regardless of the sparsity pattern (a conditional
// per element would mispredict constantly on sparsified gradients).
func PackNonzero(x []float32) *Sparse {
	n := len(x)
	bitmap := make([]uint64, BitmapWords(n))
	// Each 64-element stripe maps to one word, so chunking on word
	// boundaries keeps writers disjoint.
	words := len(bitmap)
	parallel.ForGrain2(words, 64, bitmap, x, func(bitmap []uint64, x []float32, wlo, whi int) {
		n := len(x)
		for w := wlo; w < whi; w++ {
			base := w << 6
			if base+64 <= n {
				s := x[base : base+64 : base+64]
				var word uint64
				for j := 0; j < 64; j += 8 {
					word |= nzBit(s[j])<<uint(j) |
						nzBit(s[j+1])<<uint(j+1) |
						nzBit(s[j+2])<<uint(j+2) |
						nzBit(s[j+3])<<uint(j+3) |
						nzBit(s[j+4])<<uint(j+4) |
						nzBit(s[j+5])<<uint(j+5) |
						nzBit(s[j+6])<<uint(j+6) |
						nzBit(s[j+7])<<uint(j+7)
				}
				bitmap[w] = word
				continue
			}
			var word uint64
			for i := base; i < n; i++ {
				word |= nzBit(x[i]) << (uint(i) & 63)
			}
			bitmap[w] = word
		}
	})
	return PackMask(x, bitmap)
}

// PackMask packs the elements of x selected by the given bitmap (values at
// unselected positions are ignored, whatever their content). The parallel
// structure follows Sec. 3.2 — status vector, prefix sum, scatter — but
// the prefix sum runs over per-chunk word popcounts instead of one
// counter per element, so packing is two passes over the bitmap with no
// O(n) temporary.
func PackMask(x []float32, bitmap []uint64) *Sparse {
	n := len(x)
	if len(bitmap) != BitmapWords(n) {
		panic("pack: bitmap length mismatch")
	}
	words := len(bitmap)
	chunks, size := parallel.Plan(words, 2048)
	if chunks == 0 {
		return &Sparse{N: n, Bitmap: bitmap, Values: nil}
	}

	// Pass 1: per-chunk popcounts, scanned in place into exclusive offsets.
	offb := scratch.Ints(chunks)
	defer scratch.PutInts(offb)
	offsets := *offb
	parallel.ForGrain3(chunks, 1, offsets, bitmap, size, chunkPopcounts)
	running := 0
	for c, t := range offsets {
		offsets[c] = running
		running += t
	}
	values := make([]float32, running)

	// Pass 2: each chunk gathers its surviving values at its offset.
	parallel.ForGrain1(chunks, 1,
		scatterCtx{offsets: offsets, bitmap: bitmap, values: values, dense: x, size: size},
		func(sc scatterCtx, clo, chi int) {
			words := len(sc.bitmap)
			for c := clo; c < chi; c++ {
				vi := sc.offsets[c]
				wlo, whi := parallel.ChunkBounds(c, sc.size, words)
				for w := wlo; w < whi; w++ {
					word := sc.bitmap[w]
					base := w << 6
					for word != 0 {
						bit := bits.TrailingZeros64(word)
						sc.values[vi] = sc.dense[base+bit]
						vi++
						word &= word - 1
					}
				}
			}
		})
	return &Sparse{N: n, Bitmap: bitmap, Values: values}
}

// scatterCtx threads the pack/unpack pass-2 state through ForGrain1 by
// value so the loop bodies capture nothing (see parallel.For2 on why that
// matters for steady-state allocation).
type scatterCtx struct {
	offsets []int
	bitmap  []uint64
	values  []float32
	dense   []float32 // gather source (PackMask) or scatter target (UnpackInto)
	size    int
}

// chunkPopcounts is the shared pass-1 body: per-chunk bitmap popcounts
// written to offsets[c], later scanned into exclusive offsets. The count
// loop is unrolled 8 wide: OnesCount64 compiles to a single POPCNT-class
// instruction, so with one word per step the loop control dominates;
// eight independent counts per step let them pipeline.
func chunkPopcounts(offsets []int, bitmap []uint64, size, clo, chi int) {
	words := len(bitmap)
	for c := clo; c < chi; c++ {
		wlo, whi := parallel.ChunkBounds(c, size, words)
		b := bitmap[wlo:whi]
		total := 0
		i := 0
		for ; i+8 <= len(b); i += 8 {
			total += bits.OnesCount64(b[i]) + bits.OnesCount64(b[i+1]) +
				bits.OnesCount64(b[i+2]) + bits.OnesCount64(b[i+3]) +
				bits.OnesCount64(b[i+4]) + bits.OnesCount64(b[i+5]) +
				bits.OnesCount64(b[i+6]) + bits.OnesCount64(b[i+7])
		}
		for ; i < len(b); i++ {
			total += bits.OnesCount64(b[i])
		}
		offsets[c] = total
	}
}

// PackNonzeroSerial is the single-threaded baseline packing algorithm the
// paper compares against (it reports a 689x parallel speedup on a V100).
func PackNonzeroSerial(x []float32) *Sparse {
	n := len(x)
	bitmap := make([]uint64, BitmapWords(n))
	values := make([]float32, 0, n/8)
	for i, v := range x {
		if v != 0 {
			bitmap[i>>6] |= 1 << (uint(i) & 63)
			values = append(values, v)
		}
	}
	return &Sparse{N: n, Bitmap: bitmap, Values: values}
}

// Unpack scatters the packed values back into a dense vector of length N.
// dst must have length N; positions not covered by the bitmap are zeroed.
// Parallel: per-chunk popcount offsets, then an independent scatter per
// chunk.
func (s *Sparse) Unpack(dst []float32) {
	UnpackInto(dst, s.Bitmap, s.Values)
}

// UnpackInto scatters values into dst according to bitmap (dst positions
// with a clear bit are zeroed). len(bitmap) must be BitmapWords(len(dst))
// and len(values) the bitmap popcount. This is the allocation-free core of
// Sparse.Unpack for callers holding the fields in reused buffers.
func UnpackInto(dst []float32, bitmap []uint64, values []float32) {
	n := len(dst)
	if len(bitmap) != BitmapWords(n) {
		panic("pack: dst length mismatch")
	}
	words := len(bitmap)
	chunks, size := parallel.Plan(words, 2048)
	if chunks == 0 {
		return
	}
	offb := scratch.Ints(chunks)
	defer scratch.PutInts(offb)
	offsets := *offb
	parallel.ForGrain3(chunks, 1, offsets, bitmap, size, chunkPopcounts)
	running := 0
	for c, t := range offsets {
		offsets[c] = running
		running += t
	}
	parallel.ForGrain1(chunks, 1,
		scatterCtx{offsets: offsets, bitmap: bitmap, values: values, dense: dst, size: size},
		func(sc scatterCtx, clo, chi int) {
			words := len(sc.bitmap)
			n := len(sc.dense)
			for c := clo; c < chi; c++ {
				vi := sc.offsets[c]
				wlo, whi := parallel.ChunkBounds(c, sc.size, words)
				for w := wlo; w < whi; w++ {
					word := sc.bitmap[w]
					base := w << 6
					end := base + 64
					if end > n {
						end = n
					}
					for i := base; i < end; i++ {
						sc.dense[i] = 0
					}
					for word != 0 {
						bit := bits.TrailingZeros64(word)
						sc.dense[base+bit] = sc.values[vi]
						vi++
						word &= word - 1
					}
				}
			}
		})
}

// UnpackSerial is the single-threaded unpacking baseline.
func (s *Sparse) UnpackSerial(dst []float32) {
	if len(dst) != s.N {
		panic("pack: dst length mismatch")
	}
	j := 0
	for i := 0; i < s.N; i++ {
		if s.Bitmap[i>>6]&(1<<(uint(i)&63)) != 0 {
			dst[i] = s.Values[j]
			j++
		} else {
			dst[i] = 0
		}
	}
}

// CompressionRatio returns originalBytes / wireBytes for a float32 source
// of length N packed into this sparse message. See Fig. 6: with the bitmap
// costing 1 bit per source element, the ratio saturates at 32 even when
// every value is dropped.
func (s *Sparse) CompressionRatio() float64 {
	return float64(s.N*4) / float64(s.WireBytes())
}
