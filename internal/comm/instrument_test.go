package comm

import (
	"fmt"
	"sync"
	"testing"

	"fftgrad/internal/telemetry"
)

// TestClusterWireCounters checks the in-process transport's logical
// bytes-on-wire accounting against the analytic ring-schedule volumes
// that netsim prices: allgather tx = (p−1)·m per rank, broadcast root
// tx = (p−1)·m.
func TestClusterWireCounters(t *testing.T) {
	const p, m = 4, 1000
	reg := telemetry.NewRegistry()
	cl := NewCluster(p)
	cl.Instrument(reg)

	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cm := cl.Rank(rank)
			data := make([]byte, m)
			cm.Allgather(data)
			cm.Broadcast(data, 0)
		}(r)
	}
	wg.Wait()

	snap := reg.Snapshot()
	tx := snap[`fftgrad_comm_tx_bytes_total{transport="inproc"}`]
	rx := snap[`fftgrad_comm_rx_bytes_total{transport="inproc"}`]
	// Allgather: p ranks × (p−1)·m. Broadcast: root sends (p−1)·m, peers
	// receive it.
	wantAG := float64(p * (p - 1) * m)
	wantBC := float64((p - 1) * m)
	want := wantAG + wantBC
	if tx != want {
		t.Errorf("inproc tx = %.0f, want %.0f", tx, want)
	}
	if rx != want {
		t.Errorf("inproc rx = %.0f, want %.0f", rx, want)
	}
}

// TestTCPWireCounters checks the TCP transport counts actual frame bytes
// (4-byte header + payload) and that cluster-wide tx equals rx.
func TestTCPWireCounters(t *testing.T) {
	const p, m = 3, 512
	comms, err := StartLocalTCPCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	reg := telemetry.NewRegistry()
	for _, c := range comms {
		c.Instrument(reg)
	}

	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			data := make([]byte, m)
			if _, err := comms[rank].Allgather(data); err != nil {
				errs[rank] = fmt.Errorf("allgather: %w", err)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	tx := snap[`fftgrad_comm_tx_bytes_total{transport="tcp"}`]
	rx := snap[`fftgrad_comm_rx_bytes_total{transport="tcp"}`]
	want := float64(p * (p - 1) * (m + 4)) // full mesh: each rank frames m bytes to p−1 peers
	if tx != want {
		t.Errorf("tcp tx = %.0f, want %.0f", tx, want)
	}
	if rx != want {
		t.Errorf("tcp rx = %.0f, want %.0f", rx, want)
	}
}
