// Package data provides deterministic synthetic datasets standing in for
// CIFAR-10 and ImageNet, which this environment cannot ship (see DESIGN.md
// substitutions). Each dataset is a supervised classification task with
// enough learnable structure that the convergence phenomena the paper
// studies — error floors under aggressive sparsification, recovery under
// diminishing θ — reproduce at CPU scale.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"fftgrad/internal/tensor"
)

// Dataset is an in-memory supervised classification dataset.
type Dataset struct {
	// X holds len(Labels) samples, each of SampleLen floats, row-major.
	X []float32
	// Labels holds the class index of each sample.
	Labels []int
	// Shape is the per-sample tensor shape (e.g. [3,32,32] or [D]).
	Shape []int
	// Classes is the number of distinct labels.
	Classes int
}

// SampleLen returns the flat length of one sample.
func (d *Dataset) SampleLen() int {
	n := 1
	for _, s := range d.Shape {
		n *= s
	}
	return n
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Batch gathers the samples at the given indices into a batch tensor of
// shape [len(idx), Shape...] plus the matching label slice.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	x := tensor.New(append([]int{len(idx)}, d.Shape...)...)
	labels := make([]int, len(idx))
	d.BatchInto(x, labels, idx)
	return x, labels
}

// BatchInto is Batch into caller-owned storage, reused from batch to
// batch: x must hold len(idx) samples and labels len(idx) labels; both
// are overwritten with the same samples in the same order.
func (d *Dataset) BatchInto(x *tensor.Tensor, labels []int, idx []int) {
	sl := d.SampleLen()
	if len(x.Data) != len(idx)*sl || len(labels) != len(idx) {
		panic(fmt.Sprintf("data: batch of %d samples into a %d-float tensor and %d labels", len(idx), len(x.Data), len(labels)))
	}
	for i, s := range idx {
		copy(x.Data[i*sl:(i+1)*sl], d.X[s*sl:(s+1)*sl])
		labels[i] = d.Labels[s]
	}
}

// Shard returns the contiguous 1/p slice of the dataset owned by worker
// rank under data parallelism. The remainder goes to the last rank.
func (d *Dataset) Shard(rank, p int) *Dataset {
	if p < 1 || rank < 0 || rank >= p {
		panic(fmt.Sprintf("data: bad shard rank=%d p=%d", rank, p))
	}
	per := d.Len() / p
	lo := rank * per
	hi := lo + per
	if rank == p-1 {
		hi = d.Len()
	}
	sl := d.SampleLen()
	return &Dataset{
		X:       d.X[lo*sl : hi*sl],
		Labels:  d.Labels[lo:hi],
		Shape:   d.Shape,
		Classes: d.Classes,
	}
}

// Split divides the dataset at sample index n into a training head and a
// test tail that share the same class structure (both views alias the
// parent's storage).
func (d *Dataset) Split(n int) (train, test *Dataset) {
	if n <= 0 || n >= d.Len() {
		panic(fmt.Sprintf("data: split point %d outside (0,%d)", n, d.Len()))
	}
	sl := d.SampleLen()
	train = &Dataset{X: d.X[:n*sl], Labels: d.Labels[:n], Shape: d.Shape, Classes: d.Classes}
	test = &Dataset{X: d.X[n*sl:], Labels: d.Labels[n:], Shape: d.Shape, Classes: d.Classes}
	return train, test
}

// SynthImages builds a class-pattern image dataset: each class has a
// deterministic base pattern (smooth random field), and every sample is
// its class pattern plus per-sample Gaussian noise. CNNs of the scale in
// internal/models learn it to high accuracy; aggressive gradient
// corruption visibly slows that convergence, which is exactly the signal
// the Fig. 13 experiments need.
func SynthImages(samples, classes, size int, noise float64, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	c, h, w := 3, size, size
	sl := c * h * w

	// Smooth class patterns: random low-frequency mixtures.
	patterns := make([][]float32, classes)
	for cl := range patterns {
		p := make([]float32, sl)
		for ch := 0; ch < c; ch++ {
			fx := 1 + r.Intn(3)
			fy := 1 + r.Intn(3)
			phase := r.Float64() * 6.28318
			amp := 0.5 + r.Float64()
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := amp * math.Sin(float64(fx)*float64(x)/float64(w)*6.28318+
						float64(fy)*float64(y)/float64(h)*6.28318+phase)
					p[(ch*h+y)*w+x] = float32(v)
				}
			}
		}
		patterns[cl] = p
	}

	d := &Dataset{
		X:       make([]float32, samples*sl),
		Labels:  make([]int, samples),
		Shape:   []int{c, h, w},
		Classes: classes,
	}
	for s := 0; s < samples; s++ {
		cl := r.Intn(classes)
		d.Labels[s] = cl
		base := patterns[cl]
		out := d.X[s*sl : (s+1)*sl]
		for i := range out {
			out[i] = base[i] + float32(r.NormFloat64()*noise)
		}
	}
	return d
}

// GaussianBlobs builds a flat-vector classification dataset: classes are
// Gaussian clusters around random unit-ish means in R^dim.
func GaussianBlobs(samples, classes, dim int, noise float64, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	means := make([][]float32, classes)
	for cl := range means {
		m := make([]float32, dim)
		for i := range m {
			m[i] = float32(r.NormFloat64())
		}
		means[cl] = m
	}
	d := &Dataset{
		X:       make([]float32, samples*dim),
		Labels:  make([]int, samples),
		Shape:   []int{dim},
		Classes: classes,
	}
	for s := 0; s < samples; s++ {
		cl := r.Intn(classes)
		d.Labels[s] = cl
		out := d.X[s*dim : (s+1)*dim]
		for i := range out {
			out[i] = means[cl][i] + float32(r.NormFloat64()*noise)
		}
	}
	return d
}

// Iterator yields shuffled mini-batch index sets, reshuffling each epoch
// with a deterministic per-epoch permutation.
type Iterator struct {
	n, batch int
	seed     int64
	perm     []int
	pos      int
	epoch    int
}

// NewIterator creates a batch iterator over n samples.
func NewIterator(n, batch int, seed int64) *Iterator {
	if batch < 1 || n < 1 {
		panic("data: iterator needs n >= 1 and batch >= 1")
	}
	if batch > n {
		panic(fmt.Sprintf("data: batch %d exceeds the %d samples it draws from", batch, n))
	}
	it := &Iterator{n: n, batch: batch, seed: seed}
	it.reshuffle()
	return it
}

func (it *Iterator) reshuffle() {
	r := rand.New(rand.NewSource(it.seed + int64(it.epoch)*1_000_003))
	it.perm = r.Perm(it.n)
	it.pos = 0
}

// Next returns the next batch of indices, rolling into a fresh epoch when
// the current one is exhausted (short final batches are dropped).
func (it *Iterator) Next() []int {
	if it.pos+it.batch > it.n {
		it.epoch++
		it.reshuffle()
	}
	idx := it.perm[it.pos : it.pos+it.batch]
	it.pos += it.batch
	return idx
}
