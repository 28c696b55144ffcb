package scratch

import (
	"runtime"
	"sync"
	"testing"
)

func TestClassBounds(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10},
		{1025, 11}, {1 << maxClass, maxClass}, {1<<maxClass + 1, -1},
	}
	for _, c := range cases {
		if got := class(c.n); got != c.want {
			t.Errorf("class(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetLengthAndReuse(t *testing.T) {
	b := Float64s(100)
	if len(*b) != 100 || cap(*b) != 128 {
		t.Fatalf("got len %d cap %d, want 100/128", len(*b), cap(*b))
	}
	for i := range *b {
		(*b)[i] = float64(i)
	}
	PutFloat64s(b)
	// Same class must serve a different length.
	b2 := Float64s(65)
	if len(*b2) != 65 || cap(*b2) != 128 {
		t.Fatalf("got len %d cap %d, want 65/128", len(*b2), cap(*b2))
	}
	PutFloat64s(b2)
}

func TestOversizedBypassesPool(t *testing.T) {
	n := 1<<maxClass + 1
	b := Uint32s(n)
	if len(*b) != n {
		t.Fatalf("got len %d, want %d", len(*b), n)
	}
	PutUint32s(b) // must not panic or poison the pool
}

func TestPutNilAndEmpty(t *testing.T) {
	PutInts(nil)
	var empty []int
	PutInts(&empty)
}

// TestSteadyStateZeroAlloc asserts that a warm Get/Put cycle does not
// touch the heap — the property the whole compression pipeline builds on.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting differs under -race")
	}
	// Warm every pool this test uses.
	for i := 0; i < 4; i++ {
		f := Float64s(4096)
		u := Uint64s(64)
		PutFloat64s(f)
		PutUint64s(u)
	}
	allocs := testing.AllocsPerRun(100, func() {
		f := Float64s(4096)
		u := Uint64s(64)
		PutUint64s(u)
		PutFloat64s(f)
	})
	if allocs != 0 {
		t.Errorf("steady-state Get/Put allocates %.1f objects per run, want 0", allocs)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := (seed+1)*(i%97+1) + 1
				b := Float32s(n)
				if len(*b) != n {
					t.Errorf("len %d, want %d", len(*b), n)
				}
				(*b)[0] = float32(seed)
				(*b)[n-1] = float32(i)
				PutFloat32s(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestFreeListKeepsWhatItIsGiven: a value put back on one goroutine is
// what the next Get returns on another, after collections too (a pool
// may drop it at either), and an empty list says so.
func TestFreeListKeepsWhatItIsGiven(t *testing.T) {
	var l FreeList[*[]float32]
	if _, ok := l.Get(); ok {
		t.Fatal("an empty list returned a value")
	}
	b := &[]float32{1}
	done := make(chan struct{})
	go func() {
		l.Put(b)
		close(done)
	}()
	<-done
	runtime.GC()
	runtime.GC()
	if got, ok := l.Get(); !ok || got != b {
		t.Fatalf("Get = %p, %v; want the value put, %p", got, ok, b)
	}
	if _, ok := l.Get(); ok {
		t.Fatal("a value came back twice")
	}
}
