// TCPCluster: run the gradient-exchange step over real TCP sockets — the
// transport a multi-machine deployment would use. Three ranks compress
// their local gradients with the FFT pipeline, allgather the messages
// over loopback TCP, decompress all peers, and verify they agree on the
// averaged gradient.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/stats"
)

func main() {
	const (
		p = 3
		n = 1 << 16
	)
	comms, err := comm.StartLocalTCPCluster(p)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range comms {
		defer c.Close()
		// A stalled peer fails the allgather with a typed timeout instead
		// of hanging the example.
		c.SetTimeout(30 * time.Second)
	}
	fmt.Printf("%d TCP ranks connected on loopback\n", p)

	// Each rank's local sub-gradient (deterministic per rank).
	grads := make([][]float32, p)
	for r := 0; r < p; r++ {
		rng := rand.New(rand.NewSource(int64(r + 1)))
		g := make([]float32, n)
		v := 0.0
		for i := range g {
			v = 0.97*v + 0.03*rng.NormFloat64()
			g[i] = float32(0.1 * v)
		}
		grads[r] = g
	}
	// The exact average, for checking the lossy one.
	exact := make([]float32, n)
	for _, g := range grads {
		for i, v := range g {
			exact[i] += v / p
		}
	}

	averaged := make([][]float32, p)
	bytesOnWire := make([]int, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := compress.NewFFT(0.85)
			msg, err := c.AppendCompress(nil, grads[rank])
			if err != nil {
				log.Fatal(err)
			}
			bytesOnWire[rank] = len(msg)
			msgs, err := comms[rank].Allgather(msg)
			if err != nil {
				log.Fatal(err)
			}
			avg := make([]float32, n)
			rec := make([]float32, n)
			for _, m := range msgs {
				if err := c.DecompressInto(rec, m); err != nil {
					log.Fatal(err)
				}
				for i, v := range rec {
					avg[i] += v / p
				}
			}
			averaged[rank] = avg
		}(r)
	}
	wg.Wait()

	// All ranks must hold the identical averaged gradient.
	for r := 1; r < p; r++ {
		for i := range averaged[0] {
			if averaged[r][i] != averaged[0][i] {
				log.Fatalf("rank %d diverged at %d", r, i)
			}
		}
	}
	fmt.Printf("wire message: %.1f KB per rank (%.1fx compression)\n",
		float64(bytesOnWire[0])/1024, compress.Ratio(n, make([]byte, bytesOnWire[0])))
	fmt.Printf("all %d ranks agree on the averaged gradient\n", p)
	fmt.Printf("lossy-average error vs exact average: relL2 = %.4f\n",
		stats.RelL2(exact, averaged[0]))
}
