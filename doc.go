// Package fftgrad reproduces "FFT-based Gradient Sparsification for the
// Distributed Training of Deep Neural Networks" (Wang et al., HPDC 2020)
// as a self-contained Go library: the FFT-domain sparsifier, the
// range-based N-bit float quantizer, the parallel sparse packing, the
// QSGD/TernGrad/Top-k baselines, a from-scratch DNN training substrate, a
// BSP data-parallel trainer over in-process collectives, the Sec. 3.3
// analytic performance model, and an experiment harness regenerating
// every table and figure of the paper's evaluation.
//
// Entry points:
//
//   - internal/compress — the Compressor interface and all five algorithms
//   - internal/dist     — BSP data-parallel training with compression
//   - internal/experiments + cmd/fftpaper — paper figure regeneration
//   - examples/         — runnable walkthroughs
//
// # Buffer reuse and the zero-allocation contract
//
// The compression hot path is designed to allocate nothing in the steady
// state. compress.Compressor is the append-style pair
//
//	AppendCompress(dst []byte, grad []float32) ([]byte, error)
//	DecompressInto(dst []float32, msg []byte) error
//
// (plus Name) and nothing else: codecs, the guard's CRC framing and the
// error-feedback wrappers all implement exactly these, and a fresh
// message is AppendCompress(nil, grad). The contract:
//
//   - AppendCompress appends the message to dst and returns the extended
//     slice, exactly like the standard library's append-style encoders.
//     Passing a retained buffer's msg[:0] reuses its capacity; after the
//     first few calls have grown it, compression allocates nothing.
//   - The returned message does not alias grad, and DecompressInto does
//     not retain msg — callers may reuse both buffers on the next
//     iteration, subject to whoever else is still reading them (see
//     internal/dist for the double-buffering this implies under
//     Allgather's aliasing).
//   - The gradient a network hands the compressors, nn.Network.Grad, is
//     the network's own flat buffer that Backward accumulates into, not a
//     copy: it is valid until the next ZeroGrads or Backward, and a caller
//     that keeps it longer copies it out (FlattenGrads).
//   - The parameters are the same: nn.Network.Data is the network's own
//     flat parameter vector, with every Param.Data a window of it, not a
//     copy. The optimizer step and a parameter sync write it in place, so
//     a caller that needs the values past the next step or sync copies
//     them out (GetParams).
//   - The failure-aware exchange (internal/cluster) hands back what its
//     member owns: an ExchangeResult or GossipResult, its slices, and the
//     payload SyncBroadcast returns are valid until that member's next
//     exchange or sync call. A View's Alive slice is shared and
//     read-only; the runtime copies it before every membership change.
//   - A transform codec (NewFFT, NewDCT) owns its model-size buffers —
//     one spectrum, one real work array and one decode-side quantizer,
//     sized at its first call — and calls on one codec serialize on its
//     lock; give each goroutine that must not wait its own codec. Other
//     temporaries come from internal/scratch, a set of typed, size-classed
//     pools; FFT/DCT plans are cached per size and a sender's tuned
//     quantizer per codec, and a receiver rebuilds its quantizer from each
//     message's header into the codec's state, so repeated same-shape
//     gradients allocate nothing, a re-tune included.
//
// The contract is enforced by testing.AllocsPerRun regression gates in
// internal/compress (TestZeroAllocRoundTrip: 0 allocs/op for the FFT,
// DCT, Top-k and FP32 round trips) and reported by the repository
// benchmark (bench/) as allocs_per_iter and compress.allocs_per_roundtrip.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results.
package fftgrad
