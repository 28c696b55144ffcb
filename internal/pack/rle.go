package pack

import (
	"encoding/binary"
	"fmt"
)

// Fig. 6 shows the 1-bit-per-element status vector capping the achievable
// compression ratio at 32. At high sparsity the bitmap is itself highly
// compressible: long runs of all-zero words. This word-level run-length
// coder removes most of that overhead — zero-word runs and one-word runs
// collapse to a token + varint count, mixed words are stored literally —
// raising the ratio ceiling well past 32 for aggressive θ.

// RLE token kinds (one control byte each, followed by a uvarint count).
const (
	rleZeroRun = 0x00 // count all-zero words
	rleOneRun  = 0x01 // count all-one words
	rleLiteral = 0x02 // count literal words follow (8 bytes each)
)

// EncodeBitmapRLE compresses a bitmap. The output never exceeds the raw
// size by more than a few bytes per literal run.
func EncodeBitmapRLE(bitmap []uint64) []byte {
	out := make([]byte, 0, len(bitmap)/4+16)
	var tmp [binary.MaxVarintLen64]byte
	emitRun := func(kind byte, count int) {
		out = append(out, kind)
		n := binary.PutUvarint(tmp[:], uint64(count))
		out = append(out, tmp[:n]...)
	}
	i := 0
	for i < len(bitmap) {
		switch bitmap[i] {
		case 0:
			j := i
			for j < len(bitmap) && bitmap[j] == 0 {
				j++
			}
			emitRun(rleZeroRun, j-i)
			i = j
		case ^uint64(0):
			j := i
			for j < len(bitmap) && bitmap[j] == ^uint64(0) {
				j++
			}
			emitRun(rleOneRun, j-i)
			i = j
		default:
			j := i
			for j < len(bitmap) && bitmap[j] != 0 && bitmap[j] != ^uint64(0) {
				j++
			}
			emitRun(rleLiteral, j-i)
			for ; i < j; i++ {
				out = binary.LittleEndian.AppendUint64(out, bitmap[i])
			}
		}
	}
	return out
}

// DecodeBitmapRLE expands an RLE stream back into exactly words bitmap
// words.
func DecodeBitmapRLE(data []byte, words int) ([]uint64, error) {
	out := make([]uint64, 0, words)
	for len(data) > 0 {
		kind := data[0]
		data = data[1:]
		count, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("pack: bad RLE varint")
		}
		data = data[n:]
		if count > uint64(words-len(out)) { // compared unsigned: int(count) can wrap negative
			return nil, fmt.Errorf("pack: RLE run of %d overflows %d-word bitmap", count, words)
		}
		switch kind {
		case rleZeroRun:
			for i := 0; i < int(count); i++ {
				out = append(out, 0)
			}
		case rleOneRun:
			for i := 0; i < int(count); i++ {
				out = append(out, ^uint64(0))
			}
		case rleLiteral:
			if len(data) < int(count)*8 {
				return nil, fmt.Errorf("pack: RLE literal run truncated")
			}
			for i := 0; i < int(count); i++ {
				out = append(out, binary.LittleEndian.Uint64(data[i*8:]))
			}
			data = data[count*8:]
		default:
			return nil, fmt.Errorf("pack: unknown RLE token %#02x", kind)
		}
	}
	if len(out) != words {
		return nil, fmt.Errorf("pack: RLE decoded %d words, want %d", len(out), words)
	}
	return out, nil
}

// WireBytesRLE returns the packed message size when the bitmap travels
// RLE-compressed instead of raw — the Fig. 6 overhead after this
// optimization.
func (s *Sparse) WireBytesRLE() int {
	return len(EncodeBitmapRLE(s.Bitmap)) + len(s.Values)*4
}
