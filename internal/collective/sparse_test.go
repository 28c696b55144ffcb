package collective

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"fftgrad/internal/comm"
	"fftgrad/internal/pack"
)

// ringCluster makes the suite read like the flat collectives' tests:
// c.Rank(r) is rank r's exchanger under the default (ring) strategy.
type ringCluster struct{ *comm.Cluster }

func NewCluster(p int) ringCluster { return ringCluster{comm.NewCluster(p)} }

func (c ringCluster) Rank(r int) *Exchanger { return New(nil, c.Cluster.Rank(r)) }

func popcountBitmap(bm []uint64) int {
	total := 0
	for _, w := range bm {
		total += bits.OnesCount64(w)
	}
	return total
}

// randSparse builds a sparse vector of length n with the given density.
func randSparse(n int, density float64, seed int64) *pack.Sparse {
	r := rand.New(rand.NewSource(seed))
	x := make([]float32, n)
	for i := range x {
		if r.Float64() < density {
			x[i] = float32(r.Intn(9) + 1) // small ints: exact float sums
		}
	}
	return pack.PackNonzero(x)
}

func TestSparseAllreduceMatchesDense(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{1, 64, 65, 1000, 10000} {
			c := NewCluster(p)
			inputs := make([]*pack.Sparse, p)
			want := make([]float64, n)
			for rank := 0; rank < p; rank++ {
				inputs[rank] = randSparse(n, 0.15, int64(p*100000+n*10+rank))
				dense := make([]float32, n)
				inputs[rank].Unpack(dense)
				for i, v := range dense {
					want[i] += float64(v)
				}
			}
			results := make([]*pack.Sparse, p)
			var wg sync.WaitGroup
			for rank := 0; rank < p; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					results[rank], _ = c.Rank(rank).SparseAllreduce(inputs[rank])
				}(rank)
			}
			wg.Wait()
			for rank := 0; rank < p; rank++ {
				dense := make([]float32, n)
				results[rank].Unpack(dense)
				for i := range dense {
					if float64(dense[i]) != want[i] {
						t.Fatalf("p=%d n=%d rank %d idx %d: %g want %g",
							p, n, rank, i, dense[i], want[i])
					}
				}
			}
		}
	}
}

func TestSparseAllreduceMaskIsUnion(t *testing.T) {
	p, n := 4, 1000
	c := NewCluster(p)
	inputs := make([]*pack.Sparse, p)
	union := make([]uint64, pack.BitmapWords(n))
	for rank := 0; rank < p; rank++ {
		inputs[rank] = randSparse(n, 0.1, int64(rank+77))
		for w := range union {
			union[w] |= inputs[rank].Bitmap[w]
		}
	}
	results := make([]*pack.Sparse, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], _ = c.Rank(rank).SparseAllreduce(inputs[rank])
		}(rank)
	}
	wg.Wait()
	for rank := 0; rank < p; rank++ {
		for w := range union {
			if results[rank].Bitmap[w] != union[w] {
				t.Fatalf("rank %d bitmap word %d: %x want union %x",
					rank, w, results[rank].Bitmap[w], union[w])
			}
		}
	}
}

// The collective's reason to exist: at moderate density it must move
// fewer bytes per rank than allgathering everyone's sparse message
// ((p−1)·msgBytes both directions for a symmetric comparison).
func TestSparseAllreduceVolumeBeatsAllgather(t *testing.T) {
	p, n := 8, 100000
	c := NewCluster(p)
	inputs := make([]*pack.Sparse, p)
	for rank := 0; rank < p; rank++ {
		inputs[rank] = randSparse(n, 0.15, int64(rank+5))
	}
	moved := make([]int, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, moved[rank] = c.Rank(rank).SparseAllreduce(inputs[rank])
		}(rank)
	}
	wg.Wait()
	allgatherBytes := (p - 1) * inputs[0].WireBytes()
	for rank := 0; rank < p; rank++ {
		if moved[rank] >= allgatherBytes {
			t.Fatalf("rank %d moved %d bytes, allgather would send %d",
				rank, moved[rank], allgatherBytes)
		}
	}
}

func TestSparseAllreduceRepeated(t *testing.T) {
	p, n := 3, 500
	c := NewCluster(p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cm := c.Rank(rank)
			for round := 0; round < 20; round++ {
				in := randSparse(n, 0.2, int64(rank*1000+round))
				out, _ := cm.SparseAllreduce(in)
				if out.N != n {
					t.Errorf("round %d rank %d: bad N %d", round, rank, out.N)
					return
				}
			}
		}(rank)
	}
	wg.Wait()
}

func TestSparseAllreduceEmptyInputs(t *testing.T) {
	p, n := 4, 256
	c := NewCluster(p)
	results := make([]*pack.Sparse, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], _ = c.Rank(rank).SparseAllreduce(pack.PackNonzero(make([]float32, n)))
		}(rank)
	}
	wg.Wait()
	for rank := 0; rank < p; rank++ {
		if got := popcountBitmap(results[rank].Bitmap); got != 0 {
			t.Fatalf("rank %d: empty inputs produced %d set bits", rank, got)
		}
	}
}

func BenchmarkSparseAllreduce8(b *testing.B) {
	p, n := 8, 1<<20
	c := NewCluster(p)
	inputs := make([]*pack.Sparse, p)
	for rank := 0; rank < p; rank++ {
		inputs[rank] = randSparse(n, 0.15, int64(rank))
	}
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for rank := 0; rank < p; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c.Rank(rank).SparseAllreduce(inputs[rank])
			}(rank)
		}
		wg.Wait()
	}
}

// TestRingSparseAdditionOrder pins the ring's per-position addition
// order: chunk c starts at rank c and is folded by ranks c+1 … c+p−1 in
// turn, each adding what arrives to its own value — so with values whose
// sums round, every rank's result still equals this sequential fold bit
// for bit.
func TestRingSparseAdditionOrder(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		const n = 1000
		c := NewCluster(p)
		dense := make([][]float32, p)
		inputs := make([]*pack.Sparse, p)
		for rank := range dense {
			r := rand.New(rand.NewSource(int64(31*p + rank)))
			dense[rank] = make([]float32, n)
			for i := range dense[rank] {
				if r.Float64() < 0.4 {
					dense[rank][i] = float32(r.NormFloat64())
				}
			}
			inputs[rank] = pack.PackNonzero(dense[rank])
		}
		words := pack.BitmapWords(n)
		want := make([]float32, n)
		for i := range want {
			chunk := 0
			for (chunk+1)*words/p*64 <= i && chunk < p-1 {
				chunk++
			}
			var sum float32
			seen := false
			for k := 0; k < p; k++ {
				v := dense[(chunk+k)%p][i]
				if seen {
					v += sum
				}
				sum, seen = v, seen || v != 0
			}
			want[i] = sum
		}
		results := make([]*pack.Sparse, p)
		var wg sync.WaitGroup
		for rank := 0; rank < p; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				results[rank], _ = c.Rank(rank).SparseAllreduce(inputs[rank])
			}(rank)
		}
		wg.Wait()
		for rank, res := range results {
			got := make([]float32, n)
			res.Unpack(got)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("p=%d rank %d idx %d: %g, sequential fold gives %g", p, rank, i, got[i], want[i])
				}
			}
		}
	}
}
