package comm

import (
	"sync"
	"testing"

	"fftgrad/internal/trace"
)

// TestTracedCollectivesZeroAllocP16 pins the zero-allocation guarantee
// for Broadcast and AllgatherInto on the steady-state path at P=16 with
// a tracer attached — the configuration dist runs in production. Ranks
// are persistent goroutines stepped over channels so goroutine launches
// do not pollute the measurement.
func TestTracedCollectivesZeroAllocP16(t *testing.T) {
	const p = 16
	c := NewCluster(p)
	tr := trace.New(p, 4096)

	msgs := make([][]byte, p)
	dsts := make([][][]byte, p)
	for r := range msgs {
		msgs[r] = make([]byte, 128+r)
		dsts[r] = make([][]byte, 0, p)
	}

	start := make(chan struct{})
	done := make(chan struct{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cm := c.Rank(rank)
			cm.AttachTrace(tr.Rank(rank))
			for {
				select {
				case <-stop:
					return
				case <-start:
				}
				dsts[rank] = cm.AllgatherInto(dsts[rank], msgs[rank])
				cm.Broadcast(msgs[rank], 3)
				done <- struct{}{}
			}
		}(r)
	}
	step := func() {
		for i := 0; i < p; i++ {
			start <- struct{}{}
		}
		for i := 0; i < p; i++ {
			<-done
		}
	}
	step() // warm-up: first AllgatherInto may grow dst, pools fill

	allocs := testing.AllocsPerRun(20, step)
	close(stop)
	wg.Wait()

	if allocs != 0 {
		t.Fatalf("traced P=%d collective round allocated %.1f times, want 0", p, allocs)
	}
	for rank := 0; rank < p; rank++ {
		if len(dsts[rank]) != p {
			t.Fatalf("rank %d allgather result has %d entries, want %d", rank, len(dsts[rank]), p)
		}
		for j := range dsts[rank] {
			if len(dsts[rank][j]) != 128+j {
				t.Fatalf("rank %d entry %d has %d bytes, want %d", rank, j, len(dsts[rank][j]), 128+j)
			}
		}
	}
	// The tracer must actually have recorded barrier arrival spans.
	barriers := 0
	for _, e := range tr.Events() {
		if e.Op == trace.OpBarrier {
			barriers++
		}
	}
	if barriers == 0 {
		t.Fatal("no OpBarrier spans recorded despite attached tracer")
	}
}
