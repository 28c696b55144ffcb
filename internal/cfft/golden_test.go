package cfft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

var printGolden = flag.Bool("print-golden", false, "print the transform output hashes instead of checking them")

// goldenSignal is a deterministic finite signal with the awkward values a
// bit-identity pin should see: exact zeros of both signs, subnormals,
// repeated magnitudes and a wide dynamic range.
func goldenSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		switch rng.Intn(8) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = math.Copysign(0, -1)
		case 2:
			x[i] = math.Float64frombits(uint64(rng.Intn(1 << 20))) // subnormal
		case 3:
			x[i] = float64(rng.Intn(5)-2) * 0.25 // ties
		default:
			x[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(40)-20))
		}
	}
	return x
}

func hashFloats(h []byte, x []float64) []byte {
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h = append(h, b[:]...)
	}
	return h
}

func hashComplex(h []byte, x []complex128) []byte {
	for _, v := range x {
		h = hashFloats(h, []float64{real(v), imag(v)})
	}
	return h
}

// goldenHash runs every transform of length n in both directions and
// hashes the raw output bits.
func goldenHash(n int) string {
	sig := goldenSignal(2*n, int64(n))
	var buf []byte

	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(sig[2*i], sig[2*i+1])
	}
	out := make([]complex128, n)
	p := PlanFor(n)
	p.Forward(out, z)
	buf = hashComplex(buf, out)
	p.Inverse(out, z)
	buf = hashComplex(buf, out)
	p.Inverse(out, out) // aliased: the swap reorder
	buf = hashComplex(buf, out)

	if n >= 2 {
		rp := RealPlanFor(n)
		spec := make([]complex128, n/2+1)
		rp.Forward(spec, sig[:n])
		buf = hashComplex(buf, spec)
		back := make([]float64, n)
		// An arbitrary (non-Hermitian-clean) spectrum, as a decoded sparse
		// message would be.
		for i := range spec {
			if i%3 == 1 {
				spec[i] = 0
			}
		}
		rp.Inverse(back, spec)
		buf = hashFloats(buf, back)

		dp := DCTPlanFor(n)
		coef := make([]float64, n)
		dctForward(dp, coef, sig[:n])
		buf = hashFloats(buf, coef)
		for i := range coef {
			if i%3 == 2 {
				coef[i] = 0
			}
		}
		buf = hashFloats(buf, dctInverse(dp, coef))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// TestGoldenTransformBits pins the raw output bits of every transform, at
// every power-of-two length up to 2^20, to the values the pure-Go scalar
// network produced before any vector kernel existed. Whatever path the
// build selects (assembly or Go) must reproduce them.
func TestGoldenTransformBits(t *testing.T) {
	maxLog := 20
	if testing.Short() {
		maxLog = 16
	}
	for lg := 0; lg <= maxLog; lg++ {
		got := goldenHash(1 << lg)
		if *printGolden {
			fmt.Printf("\t%q, // 2^%d\n", got, lg)
			continue
		}
		if got != goldenTransformHashes[lg] {
			t.Errorf("n=2^%d: output hash %s, want %s", lg, got, goldenTransformHashes[lg])
		}
	}
}

var goldenTransformHashes = [21]string{
	"06d8ff0bec9ca900", // 2^0
	"3c35e89ad069d96d", // 2^1
	"c8a08921dbac3cb8", // 2^2
	"b27ecd21e608ef33", // 2^3
	"5265ff3449b71bd1", // 2^4
	"bc0a7ec6eb189bbd", // 2^5
	"f034f39a96f6a3de", // 2^6
	"7e2a9ea9b0bada57", // 2^7
	"a18beae21a959810", // 2^8
	"99e664006afe04b9", // 2^9
	"284958650ef65a42", // 2^10
	"96abeeac01fe55ee", // 2^11
	"a20c89eae1da0755", // 2^12
	"07e4eb4cd17876be", // 2^13
	"fea870eec7a9f2a6", // 2^14
	"08fd4b318db5ff27", // 2^15
	"2ecc65eac7037654", // 2^16
	"2e142cbdad71fa9e", // 2^17
	"f81c29beac0482ac", // 2^18
	"bc16e409efb0ec59", // 2^19
	"f71bfbd44123f6a1", // 2^20
}
