package quant

import (
	"encoding/binary"
	"fmt"

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
// for N <= 12 through a 2^N-entry table of Decode's results. Immutable
// after construction, so one Decoder serves concurrent calls.
type Decoder struct {
	RangeQuantizer
	table []float32
}

// NewDecoder is NewRangeQuantizer for the decode side.
func NewDecoder(n, m int, eps, min, max float32) (*Decoder, error) {
	d := new(Decoder)
	if why, p := d.set(n, m, eps, min, max); why != 0 {
		return nil, paramError(why, n, m, eps, min, max, p)
	}
	if n <= tableBits {
		d.table = make([]float32, 1<<uint(n))
		for code := range d.table {
			d.table[code] = d.Decode(uint32(code))
		}
	}
	return d, nil
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
		if d.table != nil {
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
