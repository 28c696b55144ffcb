package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fftgrad/internal/parallel"
)

// The three products as the plain loops they were before the kernels,
// kept verbatim as the reference every kernel set must match bit for bit.

const blockK = 256

func refMatMul(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	ad, bd, cd := a.Data, b.Data, c.Data
	parallel.ForGrain(m, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := cd[i*n : (i+1)*n]
			for x := range crow {
				crow[x] = 0
			}
			for k0 := 0; k0 < k; k0 += blockK {
				kEnd := k0 + blockK
				if kEnd > k {
					kEnd = k
				}
				for p := k0; p < kEnd; p++ {
					av := ad[i*k+p]
					if av == 0 {
						continue
					}
					brow := bd[p*n : (p+1)*n]
					for x, bv := range brow {
						crow[x] += av * bv
					}
				}
			}
		}
	})
}

func refMatMulTransB(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	ad, bd, cd := a.Data, b.Data, c.Data
	parallel.ForGrain(m, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			for j := 0; j < n; j++ {
				brow := bd[j*k : (j+1)*k]
				var acc float32
				for p := range arow {
					acc += arow[p] * brow[p]
				}
				cd[i*n+j] = acc
			}
		}
	})
}

func refMatMulTransA(c, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	ad, bd, cd := a.Data, b.Data, c.Data
	parallel.ForGrain(m, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := cd[i*n : (i+1)*n]
			for x := range crow {
				crow[x] = 0
			}
			for p := 0; p < k; p++ {
				av := ad[p*m+i]
				if av == 0 {
					continue
				}
				brow := bd[p*n : (p+1)*n]
				for x, bv := range brow {
					crow[x] += av * bv
				}
			}
		}
	})
}

// refAddMatMulTransA is the weight-gradient fold as the dense layer did
// it before AddMatMulTransA: the product into scratch, then added to C
// element by element.
func refAddMatMulTransA(c, a, b *Tensor) {
	s := New(c.Shape...)
	refMatMulTransA(s, a, b)
	for i, v := range s.Data {
		c.Data[i] += v
	}
}

// refAccMatMulTransA is C += Aᵀ·B as the plain loop without the clear:
// every element starts from its own value and takes the terms in
// ascending p, skipping ±0 multipliers.
func refAccMatMulTransA(c, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	for i := 0; i < m; i++ {
		crow := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a.Data[p*m+i]
			if av == 0 {
				continue
			}
			for x, bv := range b.Data[p*n : (p+1)*n] {
				crow[x] += av * bv
			}
		}
	}
}

// product is one of the three operations with its reference. For each,
// shape (m, k, n) means C [m×n] from A and B of the shapes dims gives.
type product struct {
	name       string
	run, ref   func(c, a, b *Tensor)
	aDim, bDim func(m, k, n int) [2]int
}

var products = []product{
	{"MatMul", MatMul, refMatMul,
		func(m, k, n int) [2]int { return [2]int{m, k} }, func(m, k, n int) [2]int { return [2]int{k, n} }},
	{"MatMulTransB", MatMulTransB, refMatMulTransB,
		func(m, k, n int) [2]int { return [2]int{m, k} }, func(m, k, n int) [2]int { return [2]int{n, k} }},
	{"MatMulTransA", MatMulTransA, refMatMulTransA,
		func(m, k, n int) [2]int { return [2]int{k, m} }, func(m, k, n int) [2]int { return [2]int{k, n} }},
}

func productByName(name string) product {
	for _, pr := range products {
		if pr.name == name {
			return pr
		}
	}
	panic(name)
}

// gemmShape is one product at one shape, named for where it runs.
type gemmShape struct {
	what    string
	op      string
	m, k, n int
}

// trainedShapes are the products the benchmark's networks run at batch 4:
// every conv and dense layer's forward product and both backward
// products. conv_fft is AlexNetStyle(10, 2) on 3×32×32 images; wide_* is
// MLP(256, 560, 32).
var trainedShapes = []gemmShape{
	{"conv1.fwd", "MatMul", 16, 75, 1024},
	{"conv1.dW", "MatMulTransB", 16, 1024, 75},
	{"conv1.dcols", "MatMulTransA", 75, 16, 1024},
	{"conv2.fwd", "MatMul", 32, 400, 256},
	{"conv2.dW", "MatMulTransB", 32, 256, 400},
	{"conv2.dcols", "MatMulTransA", 400, 32, 256},
	{"conv3.fwd", "MatMul", 48, 288, 64},
	{"conv3.dW", "MatMulTransB", 48, 64, 288},
	{"conv3.dcols", "MatMulTransA", 288, 48, 64},
	{"convfc1.fwd", "MatMulTransB", 4, 768, 128},
	{"convfc1.dW", "MatMulTransA", 128, 4, 768},
	{"convfc1.dx", "MatMul", 4, 128, 768},
	{"convfc2.fwd", "MatMulTransB", 4, 128, 10},
	{"convfc2.dW", "MatMulTransA", 10, 4, 128},
	{"convfc2.dx", "MatMul", 4, 10, 128},
	{"wide1.fwd", "MatMulTransB", 4, 256, 560},
	{"wide1.dW", "MatMulTransA", 560, 4, 256},
	{"wide1.dx", "MatMul", 4, 560, 256},
	{"wide2.fwd", "MatMulTransB", 4, 560, 560},
	{"wide2.dW", "MatMulTransA", 560, 4, 560},
	{"wide2.dx", "MatMul", 4, 560, 560},
	{"wide3.fwd", "MatMulTransB", 4, 560, 32},
	{"wide3.dW", "MatMulTransA", 32, 4, 560},
	{"wide3.dx", "MatMul", 4, 32, 560},
}

// kernelSets are the sets a product is checked with: the Go reference,
// and the platform's set where it replaced it (otherwise both entries
// are the reference and the second check repeats the first).
func kernelSets() []struct {
	name string
	ks   kernels
} {
	return []struct {
		name string
		ks   kernels
	}{{"go", scalar}, {"active", active}}
}

// withKernels runs f with ks as the active set.
func withKernels(ks kernels, f func()) {
	saved := active
	active = ks
	defer func() { active = saved }()
	f()
}

func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// specialF32 draws mostly normals, with the values where a kernel could
// part from the reference: ±0, subnormals, and normals across the range.
func specialF32(r *rand.Rand) float32 {
	switch r.Intn(16) {
	case 0:
		return float32(math.Copysign(0, float64(r.Intn(2))-0.5))
	case 1:
		return math.Float32frombits(uint32(r.Int63n(1<<23)) | uint32(r.Intn(2))<<31)
	case 2:
		return float32(r.NormFloat64() * math.Exp2(float64(r.Intn(200)-100)))
	}
	return float32(r.NormFloat64())
}

// operands builds A and B for pr at (m, k, n) with special values, then
// plants the cases the axpy forms' zero skip decides: some output rows
// whose multipliers are all +0 or all -0, and for some p every multiplier
// ±0 while B's row p holds Inf and NaN, which a kernel that did not skip
// would turn into NaN outputs. TransB has no skip; its A rows of -0 must
// still sum from +0.
func operands(r *rand.Rand, pr product, m, k, n int) (a, b *Tensor) {
	ad, bd := pr.aDim(m, k, n), pr.bDim(m, k, n)
	a, b = New(ad[0], ad[1]), New(bd[0], bd[1])
	for i := range a.Data {
		a.Data[i] = specialF32(r)
	}
	for i := range b.Data {
		b.Data[i] = specialF32(r)
	}
	at := func(i, p int) *float32 { // A's multiplier of output row i, term p
		if pr.name == "MatMulTransA" {
			return &a.Data[p*m+i]
		}
		return &a.Data[i*k+p]
	}
	for i := 0; i < m; i++ {
		if z := r.Intn(8); z < 2 {
			for p := 0; p < k; p++ {
				*at(i, p) = float32(math.Copysign(0, float64(z)-0.5))
			}
		}
	}
	if pr.name == "MatMulTransB" {
		// Half of B's rows are made non-negative, so an A row of -0
		// meets columns whose products are all -0: the sum is +0 only
		// if it starts from +0.
		for j := 0; j < n; j++ {
			if r.Intn(2) == 0 {
				for p := j * k; p < (j+1)*k; p++ {
					b.Data[p] = float32(math.Abs(float64(b.Data[p])))
				}
			}
		}
		return a, b
	}
	for p := 0; p < k; p++ {
		if r.Intn(6) != 0 {
			continue
		}
		for i := 0; i < m; i++ {
			*at(i, p) = float32(math.Copysign(0, float64(r.Intn(2))-0.5))
		}
		brow := b.Data[p*n : (p+1)*n]
		for x := range brow {
			switch r.Intn(3) {
			case 0:
				brow[x] = float32(math.Inf(r.Intn(2)*2 - 1))
			case 1:
				brow[x] = float32(math.NaN())
			}
		}
	}
	return a, b
}

// checkProduct runs pr on (a, b) under every kernel set and fails on the
// first output whose bits differ from the reference's.
func checkProduct(t *testing.T, what string, pr product, a, b *Tensor, m, n int) {
	t.Helper()
	want := New(m, n)
	pr.ref(want, a, b)
	for _, set := range kernelSets() {
		got := New(m, n)
		for i := range got.Data {
			got.Data[i] = float32(math.NaN()) // every output must be written
		}
		withKernels(set.ks, func() { pr.run(got, a, b) })
		for i := range want.Data {
			if !sameF32(got.Data[i], want.Data[i]) {
				t.Fatalf("%s %s kernels: C[%d][%d] = %v (%#x), reference %v (%#x)", what, set.name,
					i/n, i%n, got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
			}
		}
	}
}

// TestMatMulKernelsMatchReference: every product the benchmark's
// networks run, plus shapes with odd tails (n mod 8 and k mod 4 ≠ 0,
// fewer than four panels, one to three panels past a group of four), on
// raw bits.
func TestMatMulKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	shapes := append([]gemmShape(nil), trainedShapes...)
	for _, op := range []string{"MatMul", "MatMulTransB", "MatMulTransA"} {
		for _, d := range [][3]int{{1, 1, 1}, {2, 3, 7}, {5, 7, 13}, {3, 9, 17}, {9, 5, 31},
			{1, 13, 33}, {4, 6, 41}, {3, 10, 49}, {2, 4, 56}, {17, 33, 65}, {6, 1, 8}, {1, 257, 9}} {
			shapes = append(shapes, gemmShape{fmt.Sprintf("tail%v", d), op, d[0], d[1], d[2]})
		}
	}
	for _, s := range shapes {
		pr := productByName(s.op)
		a, b := operands(r, pr, s.m, s.k, s.n)
		checkProduct(t, fmt.Sprintf("%s %s(%d,%d,%d)", s.what, s.op, s.m, s.k, s.n), pr, a, b, s.m, s.n)
	}
}

// checkAccumulate holds AddMatMulTransA, under every kernel set, to the
// scratch-then-fold reference from a +0 C, and to the plain accumulate
// loop from c0.
func checkAccumulate(t *testing.T, what string, a, b, c0 *Tensor) {
	t.Helper()
	m, n := c0.Shape[0], c0.Shape[1]
	fold, acc := New(m, n), FromSlice(slices.Clone(c0.Data), m, n)
	refAddMatMulTransA(fold, a, b)
	refAccMatMulTransA(acc, a, b)
	for _, set := range kernelSets() {
		for _, tc := range []struct {
			from, want *Tensor
		}{{New(m, n), fold}, {c0, acc}} {
			got := FromSlice(slices.Clone(tc.from.Data), m, n)
			withKernels(set.ks, func() { AddMatMulTransA(got, a, b) })
			for i := range got.Data {
				if !sameF32(got.Data[i], tc.want.Data[i]) {
					t.Fatalf("%s %s kernels: C[%d][%d] = %v (%#x), reference %v (%#x)", what, set.name,
						i/n, i%n, got.Data[i], math.Float32bits(got.Data[i]), tc.want.Data[i], math.Float32bits(tc.want.Data[i]))
				}
			}
		}
	}
}

// TestAddMatMulTransAMatchesFold: the accumulate form at every
// MatMulTransA shape the benchmark's networks run and the odd tails, with
// special operands, from a +0 C and from one of special values.
func TestAddMatMulTransAMatchesFold(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pr := productByName("MatMulTransA")
	shapes := [][3]int{{1, 1, 1}, {2, 3, 7}, {5, 7, 13}, {9, 5, 31}, {4, 6, 41}, {17, 33, 65}, {1, 257, 9}}
	for _, s := range trainedShapes {
		if s.op == "MatMulTransA" {
			shapes = append(shapes, [3]int{s.m, s.k, s.n})
		}
	}
	for _, d := range shapes {
		a, b := operands(r, pr, d[0], d[1], d[2])
		c0 := New(d[0], d[2])
		for i := range c0.Data {
			c0.Data[i] = specialF32(r)
		}
		checkAccumulate(t, fmt.Sprintf("AddMatMulTransA%v", d), a, b, c0)
	}
}

// FuzzMatMulMatchesReference: the three products and the accumulate form
// on arbitrary float32 bit patterns (NaNs, infinities and subnormals
// included) at shapes up to 24×12×40, under every kernel set, against the
// reference.
func FuzzMatMulMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(17), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80})
	f.Add(uint8(1), uint8(4), uint8(9), []byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, raw []byte) {
		m, k, n := 1+int(m8)%24, 1+int(k8)%12, 1+int(n8)%40
		word := func(i int) float32 {
			if len(raw) < 4 {
				return float32(i%7) - 3
			}
			j := (4 * i) % (len(raw) &^ 3)
			return math.Float32frombits(binary.LittleEndian.Uint32(raw[j:]))
		}
		for _, pr := range products {
			ad, bd := pr.aDim(m, k, n), pr.bDim(m, k, n)
			a, b := New(ad[0], ad[1]), New(bd[0], bd[1])
			for i := range a.Data {
				a.Data[i] = word(i)
			}
			for i := range b.Data {
				b.Data[i] = word(len(a.Data) + i)
			}
			checkProduct(t, pr.name, pr, a, b, m, n)
			if pr.name == "MatMulTransA" {
				c0 := New(m, n)
				for i := range c0.Data {
					c0.Data[i] = word(3*i + 1)
				}
				checkAccumulate(t, "AddMatMulTransA", a, b, c0)
			}
		}
	})
}

var sinkGEMM *Tensor

// BenchmarkGEMMShapes times every product the benchmark's networks run,
// at each shape, on normal operands: the plain loops (seed), the Go
// reference kernels (go) and the active set (the same as go on a
// platform without assembly). Run it at -cpu 1: the products split rows
// across workers.
func BenchmarkGEMMShapes(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, s := range trainedShapes {
		pr := productByName(s.op)
		ad, bd := pr.aDim(s.m, s.k, s.n), pr.bDim(s.m, s.k, s.n)
		x, y := randTensor(r, ad[0], ad[1]), randTensor(r, bd[0], bd[1])
		c := New(s.m, s.n)
		b.Run(s.what+"/seed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr.ref(c, x, y)
			}
			sinkGEMM = c
		})
		for _, set := range kernelSets() {
			b.Run(s.what+"/"+set.name, func(b *testing.B) {
				withKernels(set.ks, func() {
					for i := 0; i < b.N; i++ {
						pr.run(c, x, y)
					}
				})
				sinkGEMM = c
			})
		}
	}
}
