package parallel

import (
	"runtime/debug"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 4096, 4097, 100000} {
		seen := make([]int32, n)
		ForGrain(n, minParallelWork, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForGrainRespectsGrain(t *testing.T) {
	// Work below the grain must execute as a single serial chunk.
	calls := 0
	ForGrain(100, 1000, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("expected single chunk [0,100), got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected 1 call, got %d", calls)
	}
}

func TestForNegativeAndZero(t *testing.T) {
	called := false
	ForGrain(0, minParallelWork, func(lo, hi int) { called = true })
	ForGrain(-5, minParallelWork, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body must not be called for n <= 0")
	}
}

// chunkList is the partition Plan describes, as [lo, hi) pairs.
func chunkList(n, grain int) [][2]int {
	chunks, size := Plan(n, grain)
	var out [][2]int
	for c := 0; c < chunks; c++ {
		lo, hi := ChunkBounds(c, size, n)
		out = append(out, [2]int{lo, hi})
	}
	return out
}

func TestChunksPartition(t *testing.T) {
	check := func(n int) bool {
		if n < 0 {
			n = -n
		}
		n = n % 100000
		cs := chunkList(n, 64)
		if n == 0 {
			return len(cs) == 0
		}
		// The chunks must tile [0,n) contiguously.
		next := 0
		for _, c := range cs {
			if c[0] != next || c[1] <= c[0] {
				return false
			}
			next = c[1]
		}
		return next == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunksBoundedByWorkers(t *testing.T) {
	cs := chunkList(1<<20, 1)
	if len(cs) > Workers() {
		t.Fatalf("got %d chunks for %d workers", len(cs), Workers())
	}
}

func TestRunAll(t *testing.T) {
	var a, b, c int32
	Run(
		func() { atomic.StoreInt32(&a, 1) },
		func() { atomic.StoreInt32(&b, 2) },
		func() { atomic.StoreInt32(&c, 3) },
	)
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("thunks did not all run: %d %d %d", a, b, c)
	}
}

func TestForSumMatchesSerial(t *testing.T) {
	const n = 1 << 17
	var parSum int64
	ForGrain(n, minParallelWork, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		atomic.AddInt64(&parSum, local)
	})
	want := int64(n) * int64(n-1) / 2
	if parSum != want {
		t.Fatalf("parallel sum %d != %d", parSum, want)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	buf := make([]float32, 1<<20)
	b.SetBytes(int64(len(buf) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForGrain(len(buf), minParallelWork, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				buf[j] = buf[j]*0.5 + 1
			}
		})
	}
}

// --- persistent worker pool ---

// TestSetWorkersPartition pins the SetWorkers contract: the partition
// width follows the override deterministically, and the previous value
// round-trips for restore.
func TestSetWorkersPartition(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	if w := Workers(); w != 4 {
		t.Fatalf("Workers() = %d after SetWorkers(4)", w)
	}
	chunks, _ := Plan(1<<20, 1)
	if chunks != 4 {
		t.Fatalf("Plan produced %d chunks for 4 pinned workers", chunks)
	}
	if prev := SetWorkers(1); prev != 4 {
		t.Fatalf("SetWorkers returned previous=%d, want 4", prev)
	}
	if chunks, _ := Plan(1<<20, 1); chunks != 1 {
		t.Fatalf("Plan produced %d chunks for 1 worker", chunks)
	}
	SetWorkers(4)
	if prev := SetWorkers(0); prev != 4 { // clamped to 1
		t.Fatalf("SetWorkers(0) returned previous=%d, want 4", prev)
	}
	if w := Workers(); w != 1 {
		t.Fatalf("SetWorkers(0) must clamp to 1, got %d", w)
	}
}

// TestPoolCoversRangeExactlyOnce is the exactly-once property with the
// pool forced on (multiple workers even on a single-P machine).
func TestPoolCoversRangeExactlyOnce(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	for _, n := range []int{1, 63, 64, 4095, 4096, 4097, 1 << 17} {
		seen := make([]int32, n)
		ForGrain1(n, 16, seen, func(seen []int32, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

// TestPoolConcurrentDispatch hammers the shared queue from many
// dispatching goroutines at once — the shape of a multi-rank training
// process where every rank compresses in parallel. Run under -race this
// is the pool's publication-safety gate.
func TestPoolConcurrentDispatch(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	const goroutines = 8
	const rounds = 50
	var wg int32 = goroutines
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer func() {
				if atomic.AddInt32(&wg, -1) == 0 {
					close(done)
				}
			}()
			buf := make([]int64, 10000)
			for r := 0; r < rounds; r++ {
				for i := range buf {
					buf[i] = 0
				}
				ForGrain2(len(buf), 64, buf, int64(r), func(buf []int64, r int64, lo, hi int) {
					for i := lo; i < hi; i++ {
						buf[i] += r + 1
					}
				})
				for i, v := range buf {
					if v != int64(r+1) {
						done <- errExpect(g, r, i, v)
						return
					}
				}
			}
		}(g)
	}
	if err, ok := <-done; ok && err != nil {
		t.Fatal(err)
	}
}

type poolMismatch struct {
	g, r, i int
	v       int64
}

func errExpect(g, r, i int, v int64) error { return poolMismatch{g, r, i, v} }
func (e poolMismatch) Error() string {
	return "pool mismatch"
}

// TestPoolNestedDispatch checks that a body running on a pool helper can
// itself dispatch (the FFT recursion does this) without deadlocking: the
// dispatching goroutine always participates in its own job, so progress
// never depends on a free helper.
func TestPoolNestedDispatch(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	outer := make([]int32, 4*4096)
	ForGrain1(len(outer), 4096, outer, func(outer []int32, lo, hi int) {
		inner := make([]int32, 8192)
		ForGrain1(len(inner), 1024, inner, func(inner []int32, ilo, ihi int) {
			for i := ilo; i < ihi; i++ {
				inner[i]++
			}
		})
		for i := lo; i < hi; i++ {
			outer[i] = inner[i%len(inner)]
		}
	})
	for i, v := range outer {
		if v != 1 {
			t.Fatalf("index %d = %d, want 1", i, v)
		}
	}
}

// TestPooledDispatchZeroAlloc is the allocation gate for the pooled path:
// with the pool engaged (workers pinned above 1), a capture-free ForGrain1/2
// dispatch must not allocate — job boxes are recycled per context type.
func TestPooledDispatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // GC would evict the box pools mid-measurement
	defer SetWorkers(SetWorkers(4))
	buf := make([]float64, 1<<15)
	// Warm the box pools for both context shapes.
	run := func() {
		ForGrain1(len(buf), 1024, buf, func(buf []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				buf[i] += 1
			}
		})
		ForGrain2(len(buf), 1024, buf, 2.0, func(buf []float64, s float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				buf[i] *= s
			}
		})
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("pooled capture-free dispatch allocates %.2f allocs/op, want 0", n)
	}
}
