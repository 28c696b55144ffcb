package quant

import (
	"math"
	"math/rand"
	"testing"
)

// TestDecodePackedMatchesUnpackDecode pins the one-pass receiver decode to
// the two passes it fuses, through the value table (N <= 12) and through
// the arithmetic branch, for counts that end inside, at and past the last
// whole 8-byte window. One Decoder is Reset from width to width, the
// arithmetic branch between table widths included.
func TestDecodePackedMatchesUnpackDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var d Decoder
	for _, n := range []int{2, 5, 10, 12, 13, 24, 10, 4} {
		q, err := Tune(n, -3.3, 3.3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Reset(q.N, q.M, q.Eps, q.Min, q.Max); err != nil {
			t.Fatal(err)
		}
		if (len(d.table) != 0) != (n <= tableBits) {
			t.Fatalf("N=%d: table length %d", n, len(d.table))
		}
		for _, count := range []int{0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 5000} {
			codes := make([]uint32, count)
			for i := range codes {
				codes[i] = rng.Uint32() & (1<<uint(n) - 1)
			}
			data := PackCodes(codes, n)
			want := q.DecodeSlice(make([]float32, count), codes)
			got := make([]float32, count)
			if err := d.DecodePacked(got, data); err != nil {
				t.Fatalf("N=%d count=%d: %v", n, count, err)
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("N=%d count=%d: value %d is %g, want %g", n, count, i, got[i], want[i])
				}
			}
			if count == 0 {
				continue
			}
			for i := range got {
				got[i] = -7
			}
			if err := d.DecodePacked(got, data[:len(data)-1]); err == nil {
				t.Fatalf("N=%d count=%d: truncated stream accepted", n, count)
			}
			for i, v := range got {
				if v != -7 {
					t.Fatalf("N=%d count=%d: rejected stream wrote value %d", n, count, i)
				}
			}
		}
	}
	if err := d.Reset(10, 4, 0, -1, 1); err == nil {
		t.Fatal("Reset accepted eps = 0")
	}
}
