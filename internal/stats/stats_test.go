package stats

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(-1, 1, 4)
	for _, v := range []float64{-0.9, -0.4, 0.1, 0.6, 0.99} {
		h.Add(v)
	}
	want := []int{1, 1, 1, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bin %d count %d want %d", i, c, want[i])
		}
	}
	if h.Total != 5 {
		t.Fatalf("total %d", h.Total)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Add(-5)
	h.Add(5)
	h.Add(1) // max is exclusive
	h.Add(math.NaN())
	if h.Underflow != 1 || h.Overflow != 3 {
		t.Fatalf("under=%d over=%d", h.Underflow, h.Overflow)
	}
}

func TestHistogramDensitySums(t *testing.T) {
	h := NewHistogram(-3, 3, 30)
	x := make([]float32, 1000)
	for i := range x {
		x[i] = float32(math.Sin(float64(i))) // in [-1,1]
	}
	h.AddSlice(x)
	var sum float64
	for i := range h.Counts {
		sum += h.Density(i)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("densities sum to %g", sum)
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if h.BinCenter(0) != 1 || h.BinCenter(4) != 9 {
		t.Fatalf("centers: %g %g", h.BinCenter(0), h.BinCenter(4))
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.6)
	s := h.Render(10)
	if !strings.Contains(s, "#") || len(strings.Split(strings.TrimSpace(s), "\n")) != 2 {
		t.Fatalf("render output:\n%s", s)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	if e.Quantile(0) != 1 || e.Quantile(1) != 4 {
		t.Errorf("extreme quantiles wrong")
	}
	if q := e.Quantile(0.5); q != 3 {
		t.Errorf("median %g", q)
	}
}

func TestRelL2(t *testing.T) {
	a := []float32{3, 4}
	b := []float32{3, 4}
	if RelL2(a, b) != 0 {
		t.Fatal("identical vectors must have 0 error")
	}
	c := []float32{0, 0}
	if got := RelL2(a, c); math.Abs(got-1) > 1e-12 {
		t.Fatalf("zero reconstruction: %g want 1", got)
	}
	if got := RelL2(c, c); got != 0 {
		t.Fatalf("zero/zero: %g", got)
	}
	if got := RelL2(c, a); !math.IsInf(got, 1) {
		t.Fatalf("nonzero error on zero reference: %g", got)
	}
}

func TestAbsErrors(t *testing.T) {
	got := AbsErrors([]float32{1, -2, 3}, []float32{0.5, -1, 3})
	want := []float64{0.5, 1, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-7 {
			t.Fatalf("err[%d]=%g want %g", i, got[i], want[i])
		}
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float32{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-9 || math.Abs(s-2) > 1e-9 {
		t.Fatalf("mean %g std %g", m, s)
	}
	m, s = MeanStd(nil)
	if m != 0 || s != 0 {
		t.Fatal("empty input should be 0,0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Headers: []string{"method", "ratio", "acc"}}
	tab.AddRow("fft", 21.3, 0.5661)
	tab.AddRow("topk", 6.67, float32(0.5507))
	s := tab.String()
	if !strings.Contains(s, "method") || !strings.Contains(s, "21.3") || !strings.Contains(s, "0.5507") {
		t.Fatalf("table output:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header+rule+2 rows, got %d lines", len(lines))
	}
}

func TestRenderSeries(t *testing.T) {
	s := RenderSeries(
		Series{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		Series{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
	)
	for _, want := range []string{"a", "b", "10", "40"} {
		if !strings.Contains(s, want) {
			t.Fatalf("series output missing %q:\n%s", want, s)
		}
	}
}

// TestEWMA: the first sample sets the mean, each later one moves mean
// and variance by alpha of its deviation — the recurrence written out.
func TestEWMA(t *testing.T) {
	const alpha = 0.1
	var e EWMA
	e.Add(4, alpha)
	if e.Mean != 4 || e.Var != 0 || e.N != 1 {
		t.Fatalf("after one sample: %+v", e)
	}
	mean, v := 4.0, 0.0
	for i, x := range []float64{6, 3, 10, 4.5, -2} {
		dev := x - mean
		mean += alpha * dev
		v += alpha * (dev*dev - v)
		e.Add(x, alpha)
		if e.Mean != mean || e.Var != v || e.N != i+2 {
			t.Fatalf("sample %d: got %+v, want mean %v var %v", i+2, e, mean, v)
		}
	}
}
