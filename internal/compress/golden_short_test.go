package compress

import (
	"math"
	"testing"
)

// TestGoldenWireBytesShortGradients adds the n = 0 and n = 1 rows to the
// wire-bytes pin (testdata/golden_wire_short.sha256). They are pinned
// apart from TestGoldenWireBytes because the transform codecs' rows are
// new behaviour: before the one pipeline padded every length the way
// cfft.PaddedLen says, fft and dct refused gradients shorter than 2.
func TestGoldenWireBytesShortGradients(t *testing.T) {
	checkGolden(t, "golden_wire_short.sha256", goldenMessages(t, []int{0, 1}), false)

	// A one-element gradient survives the lossless-selection setting of
	// both transform codecs up to quantization error, and an empty one is
	// a header-only message decoding into an empty dst.
	for _, name := range []string{"fft", "dct"} {
		c := goldenCodec(name, 0, false, 24)
		if got := roundtrip(t, c, []float32{-0.75}); math.Abs(float64(got[0])+0.75) > 1e-4 {
			t.Errorf("%s: one-element gradient decoded to %g", name, got[0])
		}
		msg, err := c.AppendCompress(nil, nil)
		if err != nil || len(msg) != 4*transformHeaderWords {
			t.Errorf("%s: empty gradient: %d-byte message, err %v", name, len(msg), err)
		}
		if err := c.DecompressInto(nil, msg); err != nil {
			t.Errorf("%s: empty gradient decode: %v", name, err)
		}
	}
}
