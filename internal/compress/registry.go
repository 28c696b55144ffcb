package compress

import (
	"fmt"
	"sort"
)

// Builder constructs a compressor at a given drop ratio θ (ignored by
// algorithms without a sparsification stage).
type Builder func(theta float64) Compressor

// registry maps algorithm names to builders. The five paper algorithms
// plus the DCT ablation are pre-registered; wrappers (feedback, guard
// framing) compose on top of these at call sites.
var registry = map[string]Builder{
	"fp32":     func(theta float64) Compressor { return FP32{} },
	"fft":      func(theta float64) Compressor { return NewFFT(theta) },
	"dct":      func(theta float64) Compressor { return NewDCT(theta) },
	"topk":     func(theta float64) Compressor { return NewTopK(theta) },
	"qsgd":     func(theta float64) Compressor { return NewQSGD(3) },
	"terngrad": func(theta float64) Compressor { return NewTernGrad() },
}

// Algorithms returns the registered algorithm names, sorted.
func Algorithms() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds a compressor by algorithm name.
func New(name string, theta float64) (Compressor, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown algorithm %q (have %v)", name, Algorithms())
	}
	return b(theta), nil
}
