package comm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func startOrSkip(t *testing.T, p int) []*TCPComm {
	t.Helper()
	comms, err := StartLocalTCPCluster(p)
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(func() {
		for _, c := range comms {
			c.Close()
		}
	})
	return comms
}

func TestTCPAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6} {
		comms := startOrSkip(t, p)
		results := make([][][]byte, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				msg := []byte(fmt.Sprintf("tcp-rank-%d", rank))
				results[rank], errs[rank] = comms[rank].Allgather(msg)
			}(r)
		}
		wg.Wait()
		for r := 0; r < p; r++ {
			if errs[r] != nil {
				t.Fatalf("p=%d rank %d: %v", p, r, errs[r])
			}
			for s := 0; s < p; s++ {
				want := fmt.Sprintf("tcp-rank-%d", s)
				if string(results[r][s]) != want {
					t.Fatalf("p=%d rank %d slot %d = %q", p, r, s, results[r][s])
				}
			}
		}
	}
}

func TestTCPAllgatherLargeMessages(t *testing.T) {
	// Messages far larger than socket buffers: the per-peer send
	// goroutines must prevent deadlock.
	p := 3
	comms := startOrSkip(t, p)
	const size = 4 << 20
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			msg := bytes.Repeat([]byte{byte(rank + 1)}, size)
			got, err := comms[rank].Allgather(msg)
			if err != nil {
				errs[rank] = err
				return
			}
			for s := 0; s < p; s++ {
				if len(got[s]) != size || got[s][0] != byte(s+1) || got[s][size-1] != byte(s+1) {
					errs[rank] = fmt.Errorf("slot %d corrupted", s)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTCPRepeatedCollectives(t *testing.T) {
	p := 3
	comms := startOrSkip(t, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				msg := []byte{byte(rank), byte(round)}
				got, err := comms[rank].Allgather(msg)
				if err != nil {
					t.Errorf("rank %d round %d: %v", rank, round, err)
					return
				}
				for s := 0; s < p; s++ {
					if got[s][0] != byte(s) || got[s][1] != byte(round) {
						t.Errorf("rank %d round %d slot %d corrupted", rank, round, s)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestDialTCPClusterValidation(t *testing.T) {
	if _, err := DialTCPCluster(-1, 2, []string{"a", "b"}, nil); err == nil {
		t.Fatal("negative rank should fail")
	}
	if _, err := DialTCPCluster(0, 2, []string{"a"}, nil); err == nil {
		t.Fatal("addr count mismatch should fail")
	}
}

func BenchmarkTCPAllgather4x256K(b *testing.B) {
	comms, err := StartLocalTCPCluster(4)
	if err != nil {
		b.Skip(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	msg := make([]byte, 256<<10)
	b.SetBytes(int64(4 * len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				if _, err := comms[rank].Allgather(msg); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
}
