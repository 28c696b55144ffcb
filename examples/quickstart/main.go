// Quickstart: compress a gradient with the paper's FFT pipeline, ship it,
// and reconstruct it — the five-line version of the whole system.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fftgrad/internal/compress"
	"fftgrad/internal/stats"
)

func main() {
	// A gradient-like signal: spatially correlated, near-Gaussian,
	// concentrated around zero — exactly what DNN training produces.
	r := rand.New(rand.NewSource(42))
	grad := make([]float32, 1<<20)
	v := 0.0
	for i := range grad {
		v = 0.97*v + 0.03*r.NormFloat64()
		grad[i] = float32(0.1*v + 0.002*r.NormFloat64())
	}

	// The paper's default configuration: drop 85% of the frequency
	// components, quantize the survivors to 10-bit range-based floats.
	c := compress.NewFFT(0.85)

	msg, err := c.AppendCompress(nil, grad)
	if err != nil {
		log.Fatal(err)
	}
	rec := make([]float32, len(grad))
	if err := c.DecompressInto(rec, msg); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("gradient:        %d floats (%.2f MB)\n", len(grad), float64(len(grad)*4)/(1<<20))
	fmt.Printf("wire message:    %.2f MB\n", float64(len(msg))/(1<<20))
	fmt.Printf("compression:     %.1fx\n", compress.Ratio(len(grad), msg))
	fmt.Printf("relative L2 err: %.4f\n", stats.RelL2(grad, rec))

	// Compare against spatial Top-k at the same drop ratio: FFT keeps the
	// distribution, Top-k zeroes 85% of entries outright.
	tk := compress.NewTopK(0.85)
	tmsg, err := tk.AppendCompress(nil, grad)
	if err != nil {
		log.Fatal(err)
	}
	trec := make([]float32, len(grad))
	if err := tk.DecompressInto(trec, tmsg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat the same θ=0.85, Top-k error: %.4f (FFT wins: %v)\n",
		stats.RelL2(grad, trec), stats.RelL2(grad, rec) < stats.RelL2(grad, trec))
}
