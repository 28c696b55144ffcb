package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randTensor(r *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(r.NormFloat64())
	}
	return t
}

// naiveMatMul is the O(mnk) reference.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(acc)
		}
	}
	return c
}

func maxDiff(a, b *Tensor) float64 {
	var m float64
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i] - b.Data[i])); d > m {
			m = d
		}
	}
	return m
}

func TestNewAndReshape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("len %d", x.Len())
	}
	y := x.Reshape(6, 4)
	if y.Dim(0) != 6 || y.Dim(1) != 4 {
		t.Fatal("reshape shape wrong")
	}
	y.Data[0] = 5
	if x.Data[0] != 5 {
		t.Fatal("reshape must share storage")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 0)
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(make([]float32, 5), 2, 3)
}

// TestNonPositiveDimensionsRejected: FromSlice and Reshape refuse a zero
// or negative dimension with New's panic, even where the dimensions'
// product matches the data.
func TestNonPositiveDimensionsRejected(t *testing.T) {
	for name, f := range map[string]func(){
		"New(2, -3)":                  func() { New(2, -3) },
		"FromSlice(4 values, -1, -4)": func() { FromSlice(make([]float32, 4), -1, -4) },
		"FromSlice(nil, 0, 3)":        func() { FromSlice(nil, 0, 3) },
		"FromSlice(nil, 0)":           func() { FromSlice(nil, 0) },
		"Reshape(-2, -12)":            func() { New(2, 3, 4).Reshape(-2, -12) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "tensor: non-positive dimension") {
					t.Errorf("%s: panic %q, want New's", name, msg)
				}
			}()
			f()
		}()
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 33, 9}, {64, 128, 32}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		want := naiveMatMul(a, b)
		got := New(m, n)
		MatMul(got, a, b)
		if d := maxDiff(got, want); d > 1e-4 {
			t.Errorf("matmul %v: max diff %g", dims, d)
		}
	}
}

func TestMatMulTransB(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m, k, n := 13, 27, 9
	a := randTensor(r, m, k)
	bT := randTensor(r, n, k) // B stored transposed
	// Build plain B to compare through naive path.
	b := New(k, n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			b.Data[j*n+i] = bT.Data[i*k+j]
		}
	}
	want := naiveMatMul(a, b)
	got := New(m, n)
	MatMulTransB(got, a, bT)
	if d := maxDiff(got, want); d > 1e-4 {
		t.Errorf("matmulTransB max diff %g", d)
	}
}

func TestMatMulTransA(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	k, m, n := 21, 8, 15
	aT := randTensor(r, k, m) // A stored transposed
	b := randTensor(r, k, n)
	a := New(m, k)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			a.Data[j*k+i] = aT.Data[i*m+j]
		}
	}
	want := naiveMatMul(a, b)
	got := New(m, n)
	MatMulTransA(got, aT, b)
	if d := maxDiff(got, want); d > 1e-4 {
		t.Errorf("matmulTransA max diff %g", d)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(4, 2))
}

func TestAddBiasRows(t *testing.T) {
	x := New(3, 2)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	AddBiasRows(x, []float32{10, 20})
	want := []float32{10, 21, 12, 23, 14, 25}
	for i := range want {
		if x.Data[i] != want[i] {
			t.Fatalf("index %d: %g want %g", i, x.Data[i], want[i])
		}
	}
}

func TestConvGeomOutDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, Kernel: 3, Stride: 1, Pad: 1}
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("same-pad 3x3: %dx%d", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 3, InH: 32, InW: 32, Kernel: 3, Stride: 2, Pad: 1}
	if g2.OutH() != 16 || g2.OutW() != 16 {
		t.Fatalf("stride-2: %dx%d", g2.OutH(), g2.OutW())
	}
}

// Im2col on a known tiny image.
func TestIm2colKnown(t *testing.T) {
	// 1 channel, 3x3 image, 2x2 kernel, stride 1, no pad → 2x2 output.
	x := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	g := ConvGeom{InC: 1, InH: 3, InW: 3, Kernel: 2, Stride: 1, Pad: 0}
	cols := make([]float32, 4*4)
	Im2col(cols, x, g)
	// Rows are kernel taps (kh,kw), columns are output positions.
	want := []float32{
		1, 2, 4, 5, // tap (0,0)
		2, 3, 5, 6, // tap (0,1)
		4, 5, 7, 8, // tap (1,0)
		5, 6, 8, 9, // tap (1,1)
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("col %d: %g want %g", i, cols[i], want[i])
		}
	}
}

func TestIm2colPadding(t *testing.T) {
	x := []float32{1, 2, 3, 4} // 1x2x2
	g := ConvGeom{InC: 1, InH: 2, InW: 2, Kernel: 3, Stride: 1, Pad: 1}
	// output 2x2, rows = 9
	cols := make([]float32, 9*4)
	Im2col(cols, x, g)
	// Tap (0,0) samples (ih,iw) = (oh-1, ow-1): positions (-1,-1),(-1,0),(0,-1),(0,0)
	want00 := []float32{0, 0, 0, 1}
	for i := range want00 {
		if cols[i] != want00[i] {
			t.Fatalf("pad tap col %d: %g want %g", i, cols[i], want00[i])
		}
	}
	// Tap (1,1) is the identity tap: samples the image directly.
	row := (0*3+1)*3 + 1
	wantC := []float32{1, 2, 3, 4}
	for i := range wantC {
		if cols[row*4+i] != wantC[i] {
			t.Fatalf("center tap col %d: %g want %g", i, cols[row*4+i], wantC[i])
		}
	}
}

// Col2im must be the adjoint of Im2col: <Im2col(x), y> == <x, Col2im(y)>.
func TestCol2imAdjoint(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := ConvGeom{InC: 2, InH: 7, InW: 6, Kernel: 3, Stride: 2, Pad: 1}
	rows := g.InC * g.Kernel * g.Kernel
	cols := g.OutH() * g.OutW()
	x := make([]float32, g.InC*g.InH*g.InW)
	y := make([]float32, rows*cols)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	for i := range y {
		y[i] = float32(r.NormFloat64())
	}
	ix := make([]float32, rows*cols)
	Im2col(ix, x, g)
	var lhs float64
	for i := range ix {
		lhs += float64(ix[i]) * float64(y[i])
	}
	cy := make([]float32, len(x))
	Col2im(cy, y, g)
	var rhs float64
	for i := range x {
		rhs += float64(x[i]) * float64(cy[i])
	}
	if math.Abs(lhs-rhs) > 1e-3*math.Abs(lhs) {
		t.Fatalf("adjoint violated: %g vs %g", lhs, rhs)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randTensor(r, 256, 256)
	bb := randTensor(r, 256, 256)
	c := New(256, 256)
	b.SetBytes(2 * 256 * 256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, a, bb)
	}
}

func BenchmarkIm2col(b *testing.B) {
	g := ConvGeom{InC: 64, InH: 32, InW: 32, Kernel: 3, Stride: 1, Pad: 1}
	x := make([]float32, g.InC*g.InH*g.InW)
	cols := make([]float32, g.InC*g.Kernel*g.Kernel*g.OutH()*g.OutW())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2col(cols, x, g)
	}
}
