// Package ps is the parameter-server entry point the benchmark module
// compiles against (bench/ledger.go). The runtime itself is dist's, under
// dist.Config.PS; this forwarder goes once the ledger calls dist.Train.
package ps

import (
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
)

// Config describes one synchronous PS run: the ten fields of dist.Config
// the ledger sets.
type Config struct {
	Workers, Batch, Epochs, ItersPerEpoch int
	Seed                                  int64
	Momentum                              float64
	LR                                    optim.LRSchedule
	Model                                 func(seed int64) *nn.Network
	Train                                 *data.Dataset
	NewCompressor                         func() compress.Compressor
}

// Train runs c through dist.Train; Result.Iterations counts pushes applied.
func Train(c Config) (*dist.Result, error) {
	return dist.Train(dist.Config{
		Workers: c.Workers, Batch: c.Batch, Epochs: c.Epochs, ItersPerEpoch: c.ItersPerEpoch, Seed: c.Seed,
		Momentum: c.Momentum, LR: c.LR, Model: c.Model, Train: c.Train, NewCompressor: c.NewCompressor,
		PS: &dist.PSConfig{},
	})
}
