package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Im2col and Col2im as the plain loops they were before the span paths,
// kept verbatim as the reference both kernel sets must match bit for bit.

func refIm2col(dst []float32, x []float32, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	rows := g.InC * g.Kernel * g.Kernel
	if len(dst) != rows*cols {
		panic("tensor: im2col dst size mismatch")
	}
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.Kernel; kh++ {
			for kw := 0; kw < g.Kernel; kw++ {
				row := (c*g.Kernel+kh)*g.Kernel + kw
				drow := dst[row*cols : (row+1)*cols]
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.Stride + kh - g.Pad
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < outW; ow++ {
							drow[oh*outW+ow] = 0
						}
						continue
					}
					xrow := x[(c*g.InH+ih)*g.InW:]
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.Stride + kw - g.Pad
						if iw < 0 || iw >= g.InW {
							drow[oh*outW+ow] = 0
						} else {
							drow[oh*outW+ow] = xrow[iw]
						}
					}
				}
			}
		}
	}
}

func refCol2im(dx []float32, cols []float32, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	nCols := outH * outW
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.Kernel; kh++ {
			for kw := 0; kw < g.Kernel; kw++ {
				row := (c*g.Kernel+kh)*g.Kernel + kw
				crow := cols[row*nCols : (row+1)*nCols]
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.Stride + kh - g.Pad
					if ih < 0 || ih >= g.InH {
						continue
					}
					xrow := dx[(c*g.InH+ih)*g.InW:]
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.Stride + kw - g.Pad
						if iw >= 0 && iw < g.InW {
							xrow[iw] += crow[oh*outW+ow]
						}
					}
				}
			}
		}
	}
}

// convGeoms are the three convolutions of the conv_fft network
// (AlexNetStyle at scale 2), one sample each.
var convGeoms = []struct {
	what string
	g    ConvGeom
}{
	{"conv1", ConvGeom{InC: 3, InH: 32, InW: 32, Kernel: 5, Stride: 1, Pad: 2}},
	{"conv2", ConvGeom{InC: 16, InH: 16, InW: 16, Kernel: 5, Stride: 1, Pad: 2}},
	{"conv3", ConvGeom{InC: 32, InH: 8, InW: 8, Kernel: 3, Stride: 1, Pad: 1}},
}

// convF32 draws the values where a span path could part from the plain
// loops: ±0, subnormals, ±Inf, NaNs of both signs, ties (small integers)
// and normals.
func convF32(r *rand.Rand) float32 {
	switch r.Intn(10) {
	case 0:
		return float32(math.Copysign(0, float64(r.Intn(2))-0.5))
	case 1:
		return math.Float32frombits(uint32(r.Int63n(1<<23)) | uint32(r.Intn(2))<<31)
	case 2:
		return float32(math.Inf(r.Intn(2)*2 - 1))
	case 3:
		return math.Float32frombits(0x7fc00000 | uint32(r.Intn(1<<10)) | uint32(r.Intn(2))<<31)
	case 4, 5:
		return float32(r.Intn(3) - 1)
	}
	return float32(r.NormFloat64())
}

// checkIm2colCol2im holds Im2col and Col2im at geometry g to the plain
// loops on the given image and columns, under every kernel set. Im2col
// must write every entry, so its output starts as a NaN sentinel that
// matches nothing; Col2im adds into a cleared image and may clobber its
// columns, so each run gets its own copy. Col2im's sums compare two NaNs
// as equal (sameF32).
func checkIm2colCol2im(t *testing.T, g ConvGeom, img, cols []float32) {
	t.Helper()
	want := make([]float32, len(cols))
	refIm2col(want, img, g)
	wantDx := make([]float32, len(img))
	refCol2im(wantDx, slices.Clone(cols), g)
	for _, set := range kernelSets() {
		got := make([]float32, len(cols))
		for i := range got {
			got[i] = math.Float32frombits(0x7fbadbad)
		}
		gotDx := make([]float32, len(img))
		withKernels(set.ks, func() {
			Im2col(got, img, g)
			Col2im(gotDx, slices.Clone(cols), g)
		})
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("Im2col %+v %s kernels: [%d] = %v (%#x), reference %v (%#x)", g, set.name,
					i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
		for i := range wantDx {
			if !sameF32(gotDx[i], wantDx[i]) {
				t.Fatalf("Col2im %+v %s kernels: dx[%d] = %v (%#x), reference %v (%#x)", g, set.name,
					i, gotDx[i], math.Float32bits(gotDx[i]), wantDx[i], math.Float32bits(wantDx[i]))
			}
		}
	}
}

func drawConv(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = convF32(r)
	}
	return v
}

// TestIm2colCol2imMatchReference: the conv_fft network's geometries, then
// kernels 1–5, strides 1–3 and pads 0–3 (pad ≥ k/2 included) on 1×1,
// flat and non-square planes, outW == InW and not, on ±0, subnormals,
// ±Inf and NaN, compared on raw bits.
func TestIm2colCol2imMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	check := func(g ConvGeom) {
		t.Helper()
		checkIm2colCol2im(t, g, drawConv(r, g.InC*g.InH*g.InW), drawConv(r, g.InC*g.Kernel*g.Kernel*g.OutH()*g.OutW()))
	}
	for _, c := range convGeoms {
		check(c.g)
	}
	planes := [][2]int{{1, 1}, {1, 5}, {4, 1}, {5, 5}, {3, 7}, {8, 6}, {9, 9}, {12, 11}}
	for k := 1; k <= 5; k++ {
		for s := 1; s <= 3; s++ {
			for pad := 0; pad <= 3; pad++ {
				for i, hw := range planes {
					g := ConvGeom{InC: 1 + i%2, InH: hw[0], InW: hw[1], Kernel: k, Stride: s, Pad: pad}
					if g.InH+2*pad >= k && g.InW+2*pad >= k {
						check(g)
					}
				}
			}
		}
	}
}

// FuzzIm2colCol2imMatchesReference: Im2col and Col2im on arbitrary
// float32 bit patterns at arbitrary small geometries, under every kernel
// set, against the plain loops.
func FuzzIm2colCol2imMatchesReference(f *testing.F) {
	f.Add(uint8(2), uint8(5), uint8(5), uint8(3), uint8(1), uint8(1), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80})
	f.Add(uint8(1), uint8(4), uint8(7), uint8(5), uint8(2), uint8(3), []byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, c8, h8, w8, k8, s8, p8 uint8, raw []byte) {
		g := ConvGeom{InC: 1 + int(c8)%3, InH: 1 + int(h8)%12, InW: 1 + int(w8)%12,
			Kernel: 1 + int(k8)%5, Stride: 1 + int(s8)%3, Pad: int(p8) % 4}
		if g.InH+2*g.Pad < g.Kernel || g.InW+2*g.Pad < g.Kernel {
			return
		}
		word := func(i int) float32 {
			if len(raw) < 4 {
				return float32(i%5) - 2
			}
			j := (4 * i) % (len(raw) &^ 3)
			return math.Float32frombits(binary.LittleEndian.Uint32(raw[j:]))
		}
		img := make([]float32, g.InC*g.InH*g.InW)
		cols := make([]float32, g.InC*g.Kernel*g.Kernel*g.OutH()*g.OutW())
		for i := range img {
			img[i] = word(i)
		}
		for i := range cols {
			cols[i] = word(len(img) + i)
		}
		checkIm2colCol2im(t, g, img, cols)
	})
}

var sinkConv []float32

// BenchmarkCol2imShapes times Col2im at the conv_fft network's three
// geometries, one sample, and the add kernel alone over the spans Col2im
// hands it for one channel (every tap's shifted row), for each kernel
// set: the Go reference (go) and the active set (the same as go on a
// platform without assembly). Run it at -cpu 1.
func BenchmarkCol2imShapes(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, c := range convGeoms {
		g := c.g
		cols := randTensor(r, g.InC*g.Kernel*g.Kernel, g.OutH()*g.OutW()).Data
		dx := make([]float32, g.InC*g.InH*g.InW)
		type span struct{ d, a, b int }
		var spans []span
		for kh := 0; kh < g.Kernel; kh++ {
			oh0, oh1 := taps(g.OutH(), g.InH, g.Stride, kh-g.Pad)
			for kw := 0; kw < g.Kernel; kw++ {
				if _, d, a, b := g.flatShift(kh, kw, oh0, oh1); a < b {
					spans = append(spans, span{d, a, b})
				}
			}
		}
		plane := dx[:g.InH*g.InW]
		for _, set := range kernelSets() {
			b.Run(fmt.Sprintf("%s/add/%s", c.what, set.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, s := range spans {
						set.ks.add(plane[s.a+s.d:s.b+s.d], cols[s.a:s.b])
					}
				}
				sinkConv = plane
			})
			b.Run(fmt.Sprintf("%s/col2im/%s", c.what, set.name), func(b *testing.B) {
				withKernels(set.ks, func() {
					for i := 0; i < b.N; i++ {
						clear(dx)
						Col2im(dx, cols, g)
					}
				})
				sinkConv = dx
			})
		}
	}
}
