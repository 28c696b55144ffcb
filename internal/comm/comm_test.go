package comm

import (
	"fmt"
	"sync"
	"testing"
)

// runRanks executes body on every rank concurrently and waits.
func runRanks(c *Cluster, body func(cm *Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < c.p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(c.Rank(rank))
		}(r)
	}
	wg.Wait()
}

func TestAllgatherOrder(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		c := NewCluster(p)
		results := make([][][]byte, p)
		runRanks(c, func(cm *Comm) {
			msg := []byte(fmt.Sprintf("rank-%d", cm.RankID()))
			results[cm.RankID()] = cm.Allgather(msg)
		})
		for r := 0; r < p; r++ {
			if len(results[r]) != p {
				t.Fatalf("p=%d rank %d got %d messages", p, r, len(results[r]))
			}
			for s := 0; s < p; s++ {
				want := fmt.Sprintf("rank-%d", s)
				if string(results[r][s]) != want {
					t.Fatalf("p=%d rank %d slot %d = %q", p, r, s, results[r][s])
				}
			}
		}
	}
}

func TestAllgatherRepeated(t *testing.T) {
	c := NewCluster(4)
	runRanks(c, func(cm *Comm) {
		for round := 0; round < 50; round++ {
			msg := []byte{byte(cm.RankID()), byte(round)}
			got := cm.Allgather(msg)
			for s := 0; s < 4; s++ {
				if got[s][0] != byte(s) || got[s][1] != byte(round) {
					t.Errorf("round %d rank %d slot %d corrupted: %v", round, cm.RankID(), s, got[s])
					return
				}
			}
		}
	})
}

func TestBroadcast(t *testing.T) {
	c := NewCluster(5)
	var mu sync.Mutex
	seen := map[int]string{}
	runRanks(c, func(cm *Comm) {
		var payload []byte
		if cm.RankID() == 2 {
			payload = []byte("from-root")
		}
		got := cm.Broadcast(payload, 2)
		mu.Lock()
		seen[cm.RankID()] = string(got)
		mu.Unlock()
	})
	for r := 0; r < 5; r++ {
		if seen[r] != "from-root" {
			t.Fatalf("rank %d got %q", r, seen[r])
		}
	}
}

func TestBarrierOrdering(t *testing.T) {
	p := 6
	c := NewCluster(p)
	var before, after sync.Map
	runRanks(c, func(cm *Comm) {
		before.Store(cm.RankID(), true)
		cm.Barrier()
		// At this point every rank must have stored before.
		for r := 0; r < p; r++ {
			if _, ok := before.Load(r); !ok {
				t.Errorf("rank %d passed barrier before rank %d arrived", cm.RankID(), r)
			}
		}
		after.Store(cm.RankID(), true)
	})
}

func TestRankValidation(t *testing.T) {
	c := NewCluster(2)
	for _, r := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d should panic", r)
				}
			}()
			c.Rank(r)
		}()
	}
}

func TestNewClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCluster(0)
}

func BenchmarkAllgather8x128K(b *testing.B) {
	p := 8
	c := NewCluster(p)
	msgs := make([][]byte, p)
	for r := range msgs {
		msgs[r] = make([]byte, 128<<10)
	}
	b.SetBytes(int64(p * (128 << 10)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c.Rank(rank).Allgather(msgs[rank])
			}(r)
		}
		wg.Wait()
	}
}
