// Package stats provides the measurement and presentation utilities the
// experiment harness uses: fixed-bin histograms (the gradient-distribution
// figures), empirical CDFs (the reconstruction-error figure), scalar
// summaries, the EWMA mean and variance the anomaly detectors score
// against, and plain-text table/bar-chart rendering so every experiment
// can print the series its paper figure plots.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-range, equal-width histogram.
type Histogram struct {
	Min, Max  float64
	Counts    []int
	Total     int
	Underflow int
	Overflow  int
}

// NewHistogram creates a histogram of bins equal-width buckets on
// [min, max).
func NewHistogram(min, max float64, bins int) *Histogram {
	if !(min < max) || bins < 1 {
		panic(fmt.Sprintf("stats: bad histogram spec [%g,%g) bins=%d", min, max, bins))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
}

// Add records one value.
func (h *Histogram) Add(v float64) {
	h.Total++
	switch {
	case math.IsNaN(v):
		h.Overflow++ // count NaN as out-of-range rather than dropping it
	case v < h.Min:
		h.Underflow++
	case v >= h.Max:
		h.Overflow++
	default:
		i := int((v - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
		if i == len(h.Counts) { // guard the v==Max float edge
			i--
		}
		h.Counts[i]++
	}
}

// AddSlice records every element of x.
func (h *Histogram) AddSlice(x []float32) {
	for _, v := range x {
		h.Add(float64(v))
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// Density returns the fraction of in-range samples in bin i.
func (h *Histogram) Density(i int) float64 {
	in := h.Total - h.Underflow - h.Overflow
	if in == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(in)
}

// Render draws the histogram as ASCII rows of width-proportional bars.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "%+.4f | %s %d\n", h.BinCenter(i), strings.Repeat("#", bar), c)
	}
	return b.String()
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from values (copied and sorted).
func NewECDF(values []float64) *ECDF {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Quantile returns the q-th quantile (q in [0,1]).
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(q * float64(len(e.sorted)))
	if i >= len(e.sorted) {
		i = len(e.sorted) - 1
	}
	return e.sorted[i]
}

// RelL2 returns ‖a−b‖₂ / ‖a‖₂ (0 when a is all-zero and b==a).
func RelL2(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("stats: length mismatch")
	}
	var num, den float64
	for i := range a {
		d := float64(a[i] - b[i])
		num += d * d
		den += float64(a[i]) * float64(a[i])
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// AbsErrors returns |a_i − b_i| for every i, the per-element
// reconstruction errors Fig. 15e plots as a cumulative distribution.
func AbsErrors(a, b []float32) []float64 {
	if len(a) != len(b) {
		panic("stats: length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = math.Abs(float64(a[i] - b[i]))
	}
	return out
}

// MeanStd returns the sample mean and (population) standard deviation.
func MeanStd(x []float32) (mean, std float64) {
	if len(x) == 0 {
		return 0, 0
	}
	for _, v := range x {
		mean += float64(v)
	}
	mean /= float64(len(x))
	for _, v := range x {
		d := float64(v) - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(x)))
	return mean, std
}

// EWMA is an exponentially weighted moving mean and variance with the
// count of samples folded in; the zero value is empty. The first Add
// sets the mean, each later one folds its sample in with weight alpha.
// It holds the statistic only: a caller scores a sample against Mean
// and Var by its own rule before adding it.
type EWMA struct {
	Mean, Var float64
	N         int
}

// Add folds x into the statistic.
func (e *EWMA) Add(x, alpha float64) {
	if e.N == 0 {
		e.Mean = x
	} else {
		dev := x - e.Mean
		e.Mean += alpha * dev
		e.Var += alpha * (dev*dev - e.Var)
	}
	e.N++
}

// Table renders aligned plain-text tables for experiment reports.
type Table struct {
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, formatting each cell with %v (floats as %.4g).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Series is a named (x, y) sequence for figure-style output.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// RenderSeries prints several series as a column-aligned listing keyed by
// the x values of the first series.
func RenderSeries(series ...Series) string {
	if len(series) == 0 {
		return ""
	}
	t := &Table{Headers: append([]string{"x"}, names(series)...)}
	for i := range series[0].X {
		row := make([]interface{}, 0, len(series)+1)
		row = append(row, series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, s.Y[i])
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

func names(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Name
	}
	return out
}
