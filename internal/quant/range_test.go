package quant

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustRange(t *testing.T, n, m int, eps, min, max float32) *RangeQuantizer {
	t.Helper()
	q, err := NewRangeQuantizer(n, m, eps, min, max)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestRangeEncodeDecodeBasics(t *testing.T) {
	q := mustRange(t, 8, 3, 0.002, -1, 1)
	if got := q.Decode(q.Encode(0)); got != 0 {
		t.Fatalf("0 should encode to 0, got %g", got)
	}
	// eps must be exactly representable as code 1.
	if got := q.Encode(q.Eps); got != 1 {
		t.Fatalf("Encode(eps)=%d want 1", got)
	}
	if got := q.Decode(1); got != q.Eps {
		t.Fatalf("Decode(1)=%g want %g", got, q.Eps)
	}
	// -eps is the first negative code P+1.
	if got := q.Encode(-q.Eps); got != uint32(q.P()+1) {
		t.Fatalf("Encode(-eps)=%d want %d", got, q.P()+1)
	}
	if got := q.Decode(uint32(q.P() + 1)); got != -q.Eps {
		t.Fatalf("Decode(P+1)=%g want %g", got, -q.Eps)
	}
}

func TestRangeZeroBand(t *testing.T) {
	q := mustRange(t, 8, 3, 0.002, -1, 1)
	for _, f := range []float32{0, 0.0001, -q.Eps / 2, q.Eps * 0.999} {
		if got := q.Encode(f); got != 0 {
			t.Errorf("Encode(%g)=%d, values below eps must map to 0", f, got)
		}
	}
}

func TestRangeClamping(t *testing.T) {
	q := mustRange(t, 8, 3, 0.002, -1, 1)
	top := q.Decode(q.Encode(100))
	if top != q.ActualMax() {
		t.Errorf("overflow should clamp to ActualMax %g, got %g", q.ActualMax(), top)
	}
	// Negative overflow clamps to Min first, so the reconstruction is the
	// representable value nearest Min (not ActualMin, which may lie far
	// below Min for hand-picked unbalanced parameters).
	bot := q.Decode(q.Encode(-100))
	if got := q.Decode(q.Encode(q.Min)); bot != got {
		t.Errorf("underflow should clamp like Min: %g vs %g", bot, got)
	}
	if got := q.Encode(float32(math.NaN())); got != 0 {
		t.Errorf("NaN should encode to 0, got %d", got)
	}
}

// Quantization must be a projection: Decode(Encode(x)) is a fixed point.
func TestRangeProjection(t *testing.T) {
	q := mustRange(t, 10, 4, 0.001, -1, 1)
	f := func(v float32) bool {
		if v != v {
			return true
		}
		once := q.Decode(q.Encode(v))
		twice := q.Decode(q.Encode(once))
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Monotonicity: encoding preserves order on the positive and negative
// halves (up to quantization plateaus).
func TestRangeMonotone(t *testing.T) {
	q := mustRange(t, 8, 3, 0.002, -1, 1)
	prev := float32(-2)
	for f := float32(0.002); f <= 1; f *= 1.07 {
		d := q.Decode(q.Encode(f))
		if d < prev {
			t.Fatalf("decode not monotone at %g: %g < %g", f, d, prev)
		}
		prev = d
	}
}

// Sign symmetry of the representation: Encode(-x) decodes to -Decode(Encode(x))
// whenever both magnitudes are within range.
func TestRangeSignSymmetry(t *testing.T) {
	q := mustRange(t, 9, 3, 0.002, -1, 1)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		v := float32(r.Float64()*0.9 + 0.002)
		pos := q.Decode(q.Encode(v))
		neg := q.Decode(q.Encode(-v))
		// negative side may clamp earlier if ncount < pcount; skip clamps
		if q.Encode(-v) == uint32(q.P())+q.ncount {
			continue
		}
		if neg != -pos {
			t.Fatalf("asymmetry at %g: %g vs %g", v, pos, neg)
		}
	}
}

// The gap between consecutive representable values doubles every 2^m codes
// (exponent bump), producing the Gaussian-like density of Fig. 7.
func TestRangeGapDoubling(t *testing.T) {
	q := mustRange(t, 10, 3, 0.002, -1, 1)
	vals := q.Representable()
	// Find index of first positive value.
	i := sort.Search(len(vals), func(i int) bool { return vals[i] > 0 })
	var gaps []float64
	for j := i; j+1 < len(vals); j++ {
		gaps = append(gaps, float64(vals[j+1])-float64(vals[j]))
	}
	if len(gaps) < 20 {
		t.Skip("not enough positive values")
	}
	// Gaps must be non-decreasing going away from zero.
	for j := 1; j < len(gaps); j++ {
		if gaps[j] < gaps[j-1]-1e-12 {
			t.Fatalf("gap shrank at %d: %g -> %g", j, gaps[j-1], gaps[j])
		}
	}
	// And the last gap must be much larger than the first (exponential).
	if gaps[len(gaps)-1] < 4*gaps[0] {
		t.Fatalf("gaps not exponential: first %g last %g", gaps[0], gaps[len(gaps)-1])
	}
}

func TestRepresentableSortedAndSized(t *testing.T) {
	q := mustRange(t, 8, 3, 0.002, -1, 1)
	vals := q.Representable()
	if len(vals) != 256 {
		t.Fatalf("want 256 representable values, got %d", len(vals))
	}
	if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
		t.Fatal("representable values not sorted")
	}
}

func TestTuneBalancesSigns(t *testing.T) {
	for _, rng := range []struct{ min, max float32 }{{-1, 1}, {-0.5, 0.5}, {-5, 5}} {
		q, err := Tune(10, rng.min, rng.max, nil)
		if err != nil {
			t.Fatalf("Tune(%g,%g): %v", rng.min, rng.max, err)
		}
		p := float64(q.P())
		total := float64(int(1) << uint(q.N))
		if p < total*0.25 || p > total*0.75 {
			t.Errorf("range [%g,%g]: P=%v badly unbalanced (total %v)", rng.min, rng.max, p, total)
		}
		// The tuned range must actually cover close to [min, max].
		if am := q.ActualMin(); float64(am) > float64(rng.min)*0.5 {
			t.Errorf("ActualMin %g too far from %g", am, rng.min)
		}
		if ax := q.ActualMax(); float64(ax) < float64(rng.max)*0.5 {
			t.Errorf("ActualMax %g too far from %g", ax, rng.max)
		}
	}
}

// Fig. 9: the tuned quantizer adapts its representable distribution to the
// requested range — the bulk of values must fall inside [min, max].
func TestTuneAdjustableRange(t *testing.T) {
	for _, rng := range []struct{ min, max float32 }{{-0.5, 0.5}, {-5, 5}} {
		q, err := Tune(10, rng.min, rng.max, nil)
		if err != nil {
			t.Fatal(err)
		}
		inside := 0
		vals := q.Representable()
		for _, v := range vals {
			if v >= rng.min && v <= rng.max {
				inside++
			}
		}
		if frac := float64(inside) / float64(len(vals)); frac < 0.99 {
			t.Errorf("range [%g,%g]: only %.2f%% representable values inside", rng.min, rng.max, frac*100)
		}
	}
}

// The range quantizer must beat the uniform quantizer on Gaussian data at
// the same bit width (the core claim of Sec. 3.2.1 / Fig. 7).
func TestRangeBeatsUniformOnGaussian(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sample := make([]float32, 20000)
	for i := range sample {
		sample[i] = float32(r.NormFloat64() * 0.1) // σ=0.1 inside [-1,1]
	}
	rq, err := Tune(8, -1, 1, sample[:4096])
	if err != nil {
		t.Fatal(err)
	}
	uq, err := NewUniformQuantizer(8, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mse := func(q Quantizer) float64 {
		var s float64
		for _, v := range sample {
			d := float64(q.Decode(q.Encode(v)) - v)
			s += d * d
		}
		return s / float64(len(sample))
	}
	rm, um := mse(rq), mse(uq)
	if rm >= um {
		t.Fatalf("range MSE %g not better than uniform %g", rm, um)
	}
}

// And both must beat naive IEEE truncation inside the gradient range...
// actually IEEE truncation keeps relative precision but wastes codes on
// astronomic exponents; verify its in-range representable count is tiny.
func TestTruncIEEERangeWaste(t *testing.T) {
	q, err := NewTruncIEEEQuantizer(8)
	if err != nil {
		t.Fatal(err)
	}
	vals := q.Representable()
	inRange := 0
	for _, v := range vals {
		if v >= -1 && v <= 1 {
			inRange++
		}
	}
	frac := float64(inRange) / float64(len(vals))
	if frac > 0.9 {
		t.Fatalf("truncated IEEE should waste most codes outside [-1,1]; %.2f%% inside", frac*100)
	}
}

func TestNewRangeQuantizerValidation(t *testing.T) {
	cases := []struct {
		n, m     int
		eps      float32
		min, max float32
	}{
		{1, 3, 0.002, -1, 1},  // N too small
		{25, 3, 0.002, -1, 1}, // N too big
		{8, 0, 0.002, -1, 1},  // m too small
		{8, 24, 0.002, -1, 1}, // m too big
		{8, 3, 0.002, 1, 2},   // range does not straddle 0
		{8, 3, 0, -1, 1},      // eps not positive
		{8, 3, 2, -1, 1},      // eps >= max
		{8, 23, 1e-30, -1, 1}, // cannot reach max with 8 bits at m=23
	}
	for _, c := range cases {
		if _, err := NewRangeQuantizer(c.n, c.m, c.eps, c.min, c.max); err == nil {
			t.Errorf("NewRangeQuantizer(%d,%d,%g,%g,%g) should fail", c.n, c.m, c.eps, c.min, c.max)
		}
	}
}

func TestUniformQuantizer(t *testing.T) {
	q, err := NewUniformQuantizer(3, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 8 levels over [-1,1]: step = 2/7.
	if got := q.Decode(q.Encode(-1)); got != -1 {
		t.Errorf("min must be exactly representable, got %g", got)
	}
	if got := q.Decode(q.Encode(1)); got != 1 {
		t.Errorf("max must be exactly representable, got %g", got)
	}
	if got := q.Decode(q.Encode(5)); got != 1 {
		t.Errorf("clamp high: %g", got)
	}
	if got := q.Decode(q.Encode(-5)); got != -1 {
		t.Errorf("clamp low: %g", got)
	}
	// Nearest-level rounding: 0.13 with step 2/7≈0.2857 → level 4 ≈ 0.1429
	if got := q.Decode(q.Encode(0.13)); math.Abs(float64(got)-0.142857) > 1e-5 {
		t.Errorf("rounding wrong: %g", got)
	}
	if len(q.Representable()) != 8 {
		t.Errorf("want 8 levels")
	}
}

func TestCodesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 3, 7, 8, 10, 13, 16, 24, 32} {
		count := 1000 + r.Intn(64)
		codes := make([]uint32, count)
		var mask uint32 = 0xFFFFFFFF
		if n < 32 {
			mask = 1<<uint(n) - 1
		}
		for i := range codes {
			codes[i] = r.Uint32() & mask
		}
		packed := PackCodes(codes, n)
		if len(packed) != CodeBytes(count, n) {
			t.Fatalf("n=%d: packed %d bytes want %d", n, len(packed), CodeBytes(count, n))
		}
		got, err := UnpackCodes(packed, count, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("n=%d code %d: %d != %d", n, i, got[i], codes[i])
			}
		}
	}
}

func TestUnpackCodesShortBuffer(t *testing.T) {
	if _, err := UnpackCodes([]byte{1, 2}, 100, 10); err == nil {
		t.Fatal("expected error for short buffer")
	}
}

func TestPackCodesMasksHighBits(t *testing.T) {
	packed := PackCodes([]uint32{0xFFFFFFFF}, 4)
	got, err := UnpackCodes(packed, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xF {
		t.Fatalf("high bits must be masked: %x", got[0])
	}
}

func TestQuantizerInterfaceCompliance(t *testing.T) {
	qs := []Quantizer{}
	rq := mustRange(t, 8, 3, 0.002, -1, 1)
	uq, _ := NewUniformQuantizer(8, -1, 1)
	tq, _ := NewTruncIEEEQuantizer(8)
	qs = append(qs, rq, uq, tq)
	for _, q := range qs {
		if v := q.Decode(q.Encode(0.25)); v != v {
			t.Errorf("%T produced NaN", q)
		}
	}
}

func BenchmarkRangeEncodeSlice(b *testing.B) {
	q, err := Tune(10, -1, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]float32, 1<<20)
	r := rand.New(rand.NewSource(1))
	for i := range src {
		src[i] = float32(r.NormFloat64() * 0.1)
	}
	dst := make([]uint32, len(src))
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.EncodeSlice(dst, src)
	}
}

func BenchmarkPackCodes10bit(b *testing.B) {
	codes := make([]uint32, 1<<20)
	for i := range codes {
		codes[i] = uint32(i) & 0x3FF
	}
	b.SetBytes(int64(len(codes) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackCodes(codes, 10)
	}
}
