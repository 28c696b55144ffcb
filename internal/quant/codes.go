package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"fftgrad/internal/parallel"
)

var le = binary.LittleEndian

// AppendCodes appends len(codes) N-bit codes to dst as a little-endian bit
// stream and returns the extended slice. Each code must fit in n bits
// (higher bits are masked off). The appended region is ⌈len(codes)·n/8⌉
// bytes — this is where the 32/N compression factor of the quantization
// stage comes from. With sufficient capacity in dst, nothing is allocated.
func AppendCodes(dst []byte, codes []uint32, n int) []byte {
	if n < 1 || n > 32 {
		panic(fmt.Sprintf("quant: bad code width %d", n))
	}
	mask := uint64(1)<<uint(n) - 1
	if n == 32 {
		mask = 0xFFFFFFFF
	}
	var acc uint64
	accBits := 0
	for _, c := range codes {
		acc |= (uint64(c) & mask) << uint(accBits)
		accBits += n
		for accBits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// AppendEncoded appends the N-bit codes of src to dst: the bytes
// AppendCodes(dst, q.EncodeSlice(codes, src), q.N) appends, in one
// parallel pass with no code slice between. Each worker takes whole
// groups of eight values, N whole bytes, so every output byte has one
// writer. With sufficient capacity in dst, nothing is allocated.
func (q *RangeQuantizer) AppendEncoded(dst []byte, src []float32) []byte {
	start, size := len(dst), CodeBytes(len(src), q.N)
	dst = slices.Grow(dst, size)[:start+size]
	parallel.ForGrain3((len(src)+7)/8, encodeGrain, newEncoder(q), dst[start:], src, encodeGroups)
	return dst
}

// encodeGrain is the fewest groups of eight one AppendEncoded worker
// takes: the 4096 values below which the pool is not worth waking.
const encodeGrain = 512

// encoder is a RangeQuantizer's Encode as bit-pattern arithmetic. A
// non-NaN float32's bits order its magnitude, so the range clamp is a min
// on |f|'s bits against the limit for f's sign, and magKey's
// round-to-nearest (ties down) is a carry: float64(m)-float64(low) >
// float64(high)-float64(m) says exactly that the dropped bits d exceed
// 2^(shift-1), both differences being d and 2^shift - d units of m's
// binade, so key = (m + 2^(shift-1) - 1) >> shift. The one exception is
// a high of +Inf, which never wins: a finite m's sum stops at the largest
// finite pattern.
type encoder struct {
	side     [2]encodeSide // by sign bit
	eps      uint32        // |Eps| bits
	bias     uint32        // the rounding carry-in
	base     uint32        // Eps's key - 1
	shift, n uint          // 23 - M; N
}

// encodeSide is one sign's half of an encoder: the clamp limit's |bits|,
// the code count and the code before the first.
type encodeSide struct{ lim, cnt, off uint32 }

func newEncoder(q *RangeQuantizer) encoder {
	return encoder{
		side: [2]encodeSide{
			{math.Float32bits(q.Max), q.pcount, 0},
			{math.Float32bits(-q.Min), q.ncount, q.pcount},
		},
		eps:   math.Float32bits(q.Eps),
		bias:  max(uint32(1)<<q.shift>>1, 1) - 1,
		base:  q.pbase - 1,
		shift: q.shift,
		n:     uint(q.N),
	}
}

// code is Encode(f), without a branch.
func (e *encoder) code(f float32) uint32 {
	b := math.Float32bits(f)
	side := &e.side[b>>31]
	a := b &^ (1 << 31)
	m := min(a, side.lim)
	key := min(m+e.bias, max(m, maxFloat32Bits)) >> e.shift
	code := min(key-e.base, side.cnt) + side.off
	// |f| < Eps, or NaN, is code 0: a borrow out of either difference.
	return code &^ -(((a - e.eps) | (0x7F800000 - a)) >> 31)
}

// maxFloat32Bits is math.MaxFloat32's bit pattern.
const maxFloat32Bits = 0x7F7FFFFF

// encodeGroups packs groups [lo, hi) of eight values (the last group may
// be short) into their N bytes each of out, 32 bits at a time.
func encodeGroups(e encoder, out []byte, src []float32, lo, hi int) {
	n := e.n
	src = src[8*lo : min(8*hi, len(src))]
	out = out[lo*int(n) : CodeBytes(lo*8+len(src), int(n))]
	var acc uint64
	have := uint(0)
	for _, f := range src {
		acc |= uint64(e.code(f)) << have
		if have += n; have >= 32 {
			le.PutUint32(out, uint32(acc))
			out = out[4:]
			acc >>= 32
			have -= 32
		}
	}
	for i := range out {
		out[i] = byte(acc >> (8 * uint(i)))
	}
}

// PackCodes packs len(codes) N-bit codes into a fresh little-endian bit
// stream. See AppendCodes for the allocation-free variant.
func PackCodes(codes []uint32, n int) []byte {
	return AppendCodes(make([]byte, 0, CodeBytes(len(codes), n)), codes, n)
}

// UnpackCodesInto reads count N-bit codes from a little-endian bit stream
// produced by AppendCodes/PackCodes into dst, which must have length
// count. Nothing is allocated.
func UnpackCodesInto(dst []uint32, data []byte, n int) error {
	count := len(dst)
	if n < 1 || n > 32 {
		return fmt.Errorf("quant: bad code width %d", n)
	}
	need := (count*n + 7) / 8
	if len(data) < need {
		return fmt.Errorf("quant: bit stream too short: %d bytes, need %d", len(data), need)
	}
	mask := uint64(1)<<uint(n) - 1
	if n == 32 {
		mask = 0xFFFFFFFF
	}
	var acc uint64
	accBits := 0
	bytePos := 0
	for i := 0; i < count; i++ {
		for accBits < n {
			acc |= uint64(data[bytePos]) << uint(accBits)
			bytePos++
			accBits += 8
		}
		dst[i] = uint32(acc & mask)
		acc >>= uint(n)
		accBits -= n
	}
	return nil
}

// UnpackCodes reads count N-bit codes from a little-endian bit stream into
// a fresh slice. See UnpackCodesInto for the allocation-free variant.
func UnpackCodes(data []byte, count, n int) ([]uint32, error) {
	if count < 0 {
		return nil, fmt.Errorf("quant: negative code count %d", count)
	}
	out := make([]uint32, count)
	if err := UnpackCodesInto(out, data, n); err != nil {
		return nil, err
	}
	return out, nil
}

// CodeBytes returns the packed size in bytes of count N-bit codes.
func CodeBytes(count, n int) int { return (count*n + 7) / 8 }

// tableBits is the widest code for which a Decoder tabulates every value
// (2^12 float32 = 16 KiB, L1-resident); wider codes decode arithmetically.
const tableBits = 12

// Decoder is a RangeQuantizer prepared for the receiver: it decodes a
// packed code stream straight to values, with no []uint32 in between, and
// for N <= 12 through a 2^N-entry table of Decode's results. The zero
// value is ready for Reset; between Resets a Decoder serves concurrent
// DecodePacked calls.
type Decoder struct {
	RangeQuantizer
	table []float32
}

// Reset rebuilds d as the decoder of NewRangeQuantizer(n, m, eps, min,
// max), reusing its table's memory. After an error d must not decode
// until a Reset succeeds.
func (d *Decoder) Reset(n, m int, eps, min, max float32) error {
	if why, p := d.set(n, m, eps, min, max); why != 0 {
		return paramError(why, n, m, eps, min, max, p)
	}
	d.table = d.table[:0]
	if n <= tableBits {
		d.table = slices.Grow(d.table, 1<<uint(n))[:1<<uint(n)]
		for code := range d.table {
			d.table[code] = d.Decode(uint32(code))
		}
	}
	return nil
}

// DecodePacked decodes len(dst) N-bit codes from the little-endian bit
// stream AppendCodes wrote: UnpackCodesInto followed by DecodeSlice, in
// one pass. A stream shorter than ⌈len(dst)·N/8⌉ bytes is an error and
// leaves dst untouched.
func (d *Decoder) DecodePacked(dst []float32, data []byte) error {
	if need := CodeBytes(len(dst), d.N); len(data) < need {
		return fmt.Errorf("quant: bit stream too short: %d bytes, need %d", len(data), need)
	}
	parallel.For3(len(dst), d, dst, data, func(d *Decoder, dst []float32, data []byte, lo, hi int) {
		n := uint(d.N)
		mask := uint64(1)<<n - 1
		// Codes whose 8-byte window lies inside data are one unaligned load,
		// a shift and a mask (N <= 24 and a bit offset <= 7 fit in 64 bits);
		// the last few go byte by byte.
		fast := min(hi, (len(data)-7)*8/int(n))
		i := lo
		if len(d.table) != 0 {
			for ; i < fast; i++ {
				pos := uint(i) * n
				dst[i] = d.table[le.Uint64(data[pos>>3:])>>(pos&7)&mask]
			}
		} else {
			for ; i < fast; i++ {
				pos := uint(i) * n
				dst[i] = d.Decode(uint32(le.Uint64(data[pos>>3:]) >> (pos & 7) & mask))
			}
		}
		for ; i < hi; i++ {
			pos := uint(i) * n
			var w uint64
			for b, by := range data[pos>>3:] {
				w |= uint64(by) << (8 * uint(b))
			}
			dst[i] = d.Decode(uint32(w >> (pos & 7) & mask))
		}
	})
	return nil
}
