package data

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fftgrad/internal/tensor"
)

func TestSynthImagesShape(t *testing.T) {
	d := SynthImages(100, 10, 16, 0.3, 1)
	if d.Len() != 100 || d.Classes != 10 {
		t.Fatalf("len=%d classes=%d", d.Len(), d.Classes)
	}
	if d.SampleLen() != 3*16*16 {
		t.Fatalf("sample len %d", d.SampleLen())
	}
	for _, l := range d.Labels {
		if l < 0 || l >= 10 {
			t.Fatalf("label %d out of range", l)
		}
	}
	x, labels := d.Batch([]int{0, 5, 99})
	if x.Dim(0) != 3 || x.Dim(1) != 3 || x.Dim(2) != 16 || x.Dim(3) != 16 {
		t.Fatalf("batch shape %v", x.Shape)
	}
	if len(labels) != 3 || labels[0] != d.Labels[0] || labels[2] != d.Labels[99] {
		t.Fatal("batch labels wrong")
	}
	// Batch data must match source rows.
	for i := 0; i < d.SampleLen(); i++ {
		if x.Data[d.SampleLen()+i] != d.X[5*d.SampleLen()+i] {
			t.Fatal("batch gather wrong")
		}
	}
}

func TestSynthImagesDeterministic(t *testing.T) {
	a := SynthImages(50, 5, 8, 0.2, 7)
	b := SynthImages(50, 5, 8, 0.2, 7)
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("same seed must reproduce data")
		}
	}
	c := SynthImages(50, 5, 8, 0.2, 8)
	same := 0
	for i := range a.X {
		if a.X[i] == c.X[i] {
			same++
		}
	}
	if same > len(a.X)/2 {
		t.Fatal("different seed should differ")
	}
}

func TestSynthImagesClassSeparation(t *testing.T) {
	// Same-class samples must be closer to each other than cross-class on
	// average (otherwise nothing is learnable).
	d := SynthImages(200, 4, 8, 0.3, 3)
	sl := d.SampleLen()
	dist := func(a, b int) float64 {
		var s float64
		for i := 0; i < sl; i++ {
			df := float64(d.X[a*sl+i] - d.X[b*sl+i])
			s += df * df
		}
		return s
	}
	var same, cross float64
	var nSame, nCross int
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			if d.Labels[i] == d.Labels[j] {
				same += dist(i, j)
				nSame++
			} else {
				cross += dist(i, j)
				nCross++
			}
		}
	}
	if nSame == 0 || nCross == 0 {
		t.Skip("degenerate label split")
	}
	if same/float64(nSame) >= cross/float64(nCross) {
		t.Fatalf("classes not separated: same %g cross %g", same/float64(nSame), cross/float64(nCross))
	}
}

func TestGaussianBlobs(t *testing.T) {
	d := GaussianBlobs(300, 5, 16, 0.1, 2)
	if d.Len() != 300 || d.SampleLen() != 16 {
		t.Fatal("shape wrong")
	}
	x, _ := d.Batch([]int{1, 2})
	if x.Dim(0) != 2 || x.Dim(1) != 16 {
		t.Fatalf("batch shape %v", x.Shape)
	}
}

func TestShard(t *testing.T) {
	d := GaussianBlobs(103, 3, 4, 0.1, 5)
	total := 0
	seen := map[int]bool{}
	for rank := 0; rank < 4; rank++ {
		s := d.Shard(rank, 4)
		total += s.Len()
		// Verify shard content maps back to the parent dataset.
		base := rank * (103 / 4)
		for i := 0; i < s.Len(); i++ {
			if s.Labels[i] != d.Labels[base+i] {
				t.Fatalf("rank %d label %d mismatch", rank, i)
			}
			seen[base+i] = true
		}
	}
	if total != 103 {
		t.Fatalf("shards cover %d samples, want 103", total)
	}
	if len(seen) != 103 {
		t.Fatalf("shards overlap or skip: %d unique", len(seen))
	}
}

func TestShardPanics(t *testing.T) {
	d := GaussianBlobs(10, 2, 2, 0.1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Shard(4, 4)
}

func TestIteratorCoversEpoch(t *testing.T) {
	it := NewIterator(100, 10, 1)
	seen := map[int]int{}
	for b := 0; b < 10; b++ {
		for _, i := range it.Next() {
			seen[i]++
		}
	}
	if len(seen) != 100 {
		t.Fatalf("first epoch covered %d unique samples", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d seen %d times in one epoch", i, c)
		}
	}
	if it.epoch != 0 {
		t.Fatalf("epoch counter %d", it.epoch)
	}
	it.Next()
	if it.epoch != 1 {
		t.Fatalf("epoch should roll to 1, got %d", it.epoch)
	}
}

func TestIteratorDropsShortTail(t *testing.T) {
	it := NewIterator(25, 10, 2)
	it.Next()
	it.Next()
	// 5 leftover samples: next batch must start a new epoch of full size.
	b := it.Next()
	if len(b) != 10 {
		t.Fatalf("batch size %d", len(b))
	}
	if it.epoch != 1 {
		t.Fatalf("epoch %d", it.epoch)
	}
}

func TestIteratorDeterministic(t *testing.T) {
	a := NewIterator(50, 5, 9)
	b := NewIterator(50, 5, 9)
	for i := 0; i < 20; i++ {
		ba, bb := a.Next(), b.Next()
		for j := range ba {
			if ba[j] != bb[j] {
				t.Fatal("iterators with same seed diverged")
			}
		}
	}
}

// TestBatchIntoMatchesBatch: one reused tensor and label slice, refilled
// batch after batch across an epoch boundary, hold exactly what a fresh
// Batch returns (raw bits), and refilling them allocates nothing.
func TestBatchIntoMatchesBatch(t *testing.T) {
	d := SynthImages(40, 4, 6, 0.3, 3)
	it := NewIterator(d.Len(), 7, 11)
	x, labels := tensor.New(7, 3, 6, 6), make([]int, 7)
	for b := 0; b < 12; b++ {
		idx := it.Next()
		d.BatchInto(x, labels, idx)
		want, wantLabels := d.Batch(idx)
		if fmt.Sprint(x.Shape) != fmt.Sprint(want.Shape) || fmt.Sprint(labels) != fmt.Sprint(wantLabels) {
			t.Fatalf("batch %d: shape %v labels %v, Batch gives %v %v", b, x.Shape, labels, want.Shape, wantLabels)
		}
		for i := range want.Data {
			if math.Float32bits(x.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("batch %d element %d: %v, Batch gives %v", b, i, x.Data[i], want.Data[i])
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { d.BatchInto(x, labels, it.Next()) }); a != 0 {
		t.Fatalf("BatchInto allocates %v per batch", a)
	}
}

// TestBatchIntoRejectsWrongSize: storage for another batch size panics
// before anything is written.
func TestBatchIntoRejectsWrongSize(t *testing.T) {
	d := GaussianBlobs(10, 2, 4, 0.1, 1)
	for _, c := range []struct {
		x      *tensor.Tensor
		labels int
	}{{tensor.New(2, 4), 3}, {tensor.New(3, 4), 2}, {tensor.New(3, 5), 3}} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "data: batch of 3 samples") {
					t.Fatalf("tensor %v, %d labels: recovered %v", c.x.Shape, c.labels, r)
				}
			}()
			d.BatchInto(c.x, make([]int, c.labels), []int{0, 1, 2})
		}()
	}
}

// TestIteratorRejectsBatchAboveSamples: a batch larger than the samples
// it draws from is refused with a message, not a slice-bounds panic on
// the first Next.
func TestIteratorRejectsBatchAboveSamples(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "batch 8 exceeds the 4 samples") {
			t.Fatalf("recovered %v", r)
		}
	}()
	NewIterator(4, 8, 1)
}
