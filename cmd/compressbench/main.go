// Command compressbench measures the throughput of every compression
// primitive on this machine (the CPU analogue of the paper's Table 1
// rates), then feeds the measurements into the Sec. 3.3 analytic model to
// print the minimal beneficial compression ratio per network fabric —
// i.e. it answers "should I enable compression here, and at what θ?".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"fftgrad/internal/cfft"
	"fftgrad/internal/compress"
	"fftgrad/internal/f16"
	"fftgrad/internal/pack"
	"fftgrad/internal/perfmodel"
	"fftgrad/internal/quant"
	"fftgrad/internal/stats"
	"fftgrad/internal/topk"
)

// primitiveResult is one row of the machine-readable report: a pipeline
// primitive's best observed rate and its steady-state allocations.
// BytesPerOp records the per-operation working set for rows whose size is
// not the -mb gradient (the -sizes kernel matrix); benchdiff uses it to
// normalise ns/op per row instead of assuming the report-level size.
type primitiveResult struct {
	Name        string  `json:"name"`
	BytesPerSec float64 `json:"bytes_per_sec"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
}

// compressorResult reports one full compressor: round-trip rates, the
// steady-state wire ratio and the allocation count of one reused-buffer
// round trip.
type compressorResult struct {
	Method            string  `json:"method"`
	Theta             float64 `json:"theta"`
	Ratio             float64 `json:"ratio"`
	CompressBytesPS   float64 `json:"compress_bytes_per_sec"`
	DecompressBytesPS float64 `json:"decompress_bytes_per_sec"`
	AllocsPerOp       uint64  `json:"allocs_per_op"`
}

// report is the -json output: everything the text output prints, in a
// form CI and notebooks can diff across commits.
type report struct {
	WorkingSetMB int                `json:"working_set_mb"`
	Iters        int                `json:"iters"`
	Primitives   []primitiveResult  `json:"primitives"`
	Compressors  []compressorResult `json:"compressors"`
}

// parseSizes splits a comma-separated list of element counts, rounding
// each up to the power of two the transform kernels require.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad size %q", f)
		}
		out = append(out, cfft.NextPow2(v))
	}
	return out, nil
}

func main() {
	mega := flag.Int("mb", 64, "working-set size in MB of FP32 gradients")
	iters := flag.Int("iters", 5, "timing repetitions (max rate wins)")
	sizes := flag.String("sizes", "65536,1048576", "comma-separated element counts for the transform/kernel benchmark matrix (rounded up to powers of two)")
	jsonPath := flag.String("json", "", "write a machine-readable report to this file (e.g. BENCH_compress.json)")
	flag.Parse()
	if *mega < 1 {
		fmt.Fprintf(os.Stderr, "-mb %d: the working set must be at least 1 MB\n", *mega)
		os.Exit(2)
	}

	matrixSizes, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "-sizes:", err)
		os.Exit(2)
	}

	n := *mega << 20 / 4
	r := rand.New(rand.NewSource(1))
	grad := make([]float32, n)
	for i := range grad {
		grad[i] = float32(r.NormFloat64() * 0.1)
	}
	bytes := float64(n * 4)

	rep := report{WorkingSetMB: *mega, Iters: *iters}

	// measureBytes returns the best throughput over iters repetitions plus
	// the steady-state heap allocations of one call (the Mallocs delta of
	// the final repetition, after a warm-up call has populated plan caches,
	// tuned quantizers and scratch pools). The GC is paused during the
	// measurement so a collection cannot clear the scratch pools mid-run
	// and charge pool refills to the kernel under test — this keeps the
	// allocs/op column deterministic enough for CI to diff across commits.
	measureBytes := func(opBytes float64, fn func()) (best float64, allocs uint64) {
		fn() // warm caches and pools; measure the steady state only
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var ms runtime.MemStats
		for i := 0; i < *iters; i++ {
			runtime.ReadMemStats(&ms)
			m0 := ms.Mallocs
			start := time.Now()
			fn()
			el := time.Since(start).Seconds()
			runtime.ReadMemStats(&ms)
			allocs = ms.Mallocs - m0
			if rps := opBytes / el; rps > best {
				best = rps
			}
		}
		return best, allocs
	}
	measure := func(fn func()) (best float64, allocs uint64) {
		return measureBytes(bytes, fn)
	}
	rate := func(name string, fn func()) float64 {
		best, allocs := measure(fn)
		fmt.Printf("%-28s %8.2f GB/s %8d allocs/op\n", name, best/1e9, allocs)
		rep.Primitives = append(rep.Primitives,
			primitiveResult{Name: name, BytesPerSec: best, AllocsPerOp: allocs})
		return best
	}
	// rateAt is rate for the -sizes kernel matrix: rows carry their own
	// per-op byte count so benchdiff can normalise them independently of
	// the -mb working set.
	rateAt := func(name string, opBytes float64, fn func()) float64 {
		best, allocs := measureBytes(opBytes, fn)
		fmt.Printf("%-28s %8.2f GB/s %8d allocs/op\n", name, best/1e9, allocs)
		rep.Primitives = append(rep.Primitives,
			primitiveResult{Name: name, BytesPerSec: best, AllocsPerOp: allocs, BytesPerOp: opBytes})
		return best
	}

	fmt.Printf("compression primitive throughputs (%d MB working set):\n", *mega)

	halves := make([]f16.Bits, n)
	tm := rate("precision conversion (Tm)", func() { f16.EncodeSlice(halves, grad) })

	sig := make([]float64, cfft.NextPow2(n))
	for i, v := range grad {
		sig[i] = float64(v)
	}
	plan := cfft.NewRealPlan(len(sig))
	spec := make([]complex128, plan.SpectrumLen())
	tf := rate("real FFT (Tf)", func() { plan.Forward(spec, sig) })

	mags := make([]float64, n)
	for i, v := range grad {
		m := float64(v)
		if m < 0 {
			m = -m
		}
		mags[i] = m
	}
	ts := rate("top-k selection (Ts)", func() { topk.KthLargestBucket(mags, n/10) })

	// Tp packs an actually sparsified vector: a ~12% random survivor set,
	// the shape PackNonzero sees after theta=0.85-0.9 selection. (A dense
	// or periodic fixture would hand the branch predictor a pattern that
	// real sparsified gradients never have.)
	sparse := make([]float32, n)
	for i := range sparse {
		if r.Float64() < 0.12 {
			sparse[i] = grad[i] + 1
		}
	}
	tp := rate("sparse packing (Tp)", func() { pack.PackNonzero(sparse) })

	q, err := quant.Tune(10, -1, 1, grad[:4096])
	if err != nil {
		fmt.Println("quantizer tuning failed:", err)
		return
	}
	codes := make([]uint32, n)
	rate("range quantization", func() { q.EncodeSlice(codes, grad) })

	fftc := compress.NewFFT(0.85)
	rate("full FFT pipeline", func() {
		if _, err := fftc.AppendCompress(nil, grad); err != nil {
			panic(err)
		}
	})

	// Steady-state round trip with reused buffers — the zero-allocation
	// path distributed training runs every iteration (note the parallel
	// fan-out spawns goroutines, so allocs/op here is per-worker closure
	// overhead, not data-path allocation; run with GOMAXPROCS=1 to see 0).
	rec := make([]float32, n)
	var msg []byte
	rate("FFT round trip (reused)", func() {
		var err error
		msg, err = fftc.AppendCompress(msg[:0], grad)
		if err != nil {
			panic(err)
		}
		if err := fftc.DecompressInto(rec, msg); err != nil {
			panic(err)
		}
	})

	// Transform/kernel matrix over the -sizes element counts: the complex
	// radix path, the real half-spectrum path, and the f16/pack bulk
	// kernels, each at sizes matching real layer gradients. These rows are
	// what the committed BENCH_BASELINE.json locks in: benchdiff fails CI
	// when any of them regresses.
	fmt.Printf("\ntransform/kernel matrix (-sizes %s):\n", *sizes)
	for _, kn := range matrixSizes {
		kr := rand.New(rand.NewSource(int64(kn)))
		kplan := cfft.PlanFor(kn)
		csrc := make([]complex128, kn)
		cdst := make([]complex128, kn)
		for i := range csrc {
			csrc[i] = complex(float64(i%101)*0.01-0.5, float64(i%37)*0.01)
		}
		// One op = forward + inverse over kn complex128 values.
		rtBytes := float64(2 * 16 * kn)
		rateAt(fmt.Sprintf("fft-forward/n=%d", kn), float64(16*kn), func() {
			kplan.Forward(cdst, csrc)
		})
		rateAt(fmt.Sprintf("fft-roundtrip/n=%d", kn), rtBytes, func() {
			kplan.Forward(cdst, csrc)
			kplan.Inverse(cdst, cdst)
		})

		rplan := cfft.RealPlanFor(kn)
		rsrc := make([]float64, kn)
		rdst := make([]float64, kn)
		for i := range rsrc {
			rsrc[i] = float64(i%101)*0.01 - 0.5
		}
		rspec := make([]complex128, rplan.SpectrumLen())
		rateAt(fmt.Sprintf("realfft-roundtrip/n=%d", kn), float64(2*8*kn), func() {
			rplan.Forward(rspec, rsrc)
			rplan.Inverse(rdst, rspec)
		})

		// Gradient-like random values: a periodic ramp would let the
		// branch predictor learn the scalar rounding branch's pattern and
		// make the conversion look faster than it runs on real data.
		fsrc := make([]float32, kn)
		for i := range fsrc {
			fsrc[i] = float32(kr.NormFloat64() * 0.1)
		}
		fh := make([]f16.Bits, kn)
		fdec := make([]float32, kn)
		rateAt(fmt.Sprintf("f16-roundtrip/n=%d", kn), float64(2*4*kn), func() {
			f16.EncodeSlice(fh, fsrc)
			f16.DecodeSlice(fdec, fh)
		})

		psrc := make([]float32, kn)
		for i := range psrc {
			if kr.Float64() < 0.12 { // ~12% density, a θ=0.85-ish survivor set
				psrc[i] = fsrc[i] + 1
			}
		}
		pdst := make([]float32, kn)
		rateAt(fmt.Sprintf("pack-roundtrip/n=%d", kn), float64(2*4*kn), func() {
			s := pack.PackNonzero(psrc)
			s.Unpack(pdst)
		})
	}

	// Every registered compressor end to end on the reused-buffer path:
	// per-method compress/decompress rates, wire ratio and allocations.
	const sweepTheta = 0.85
	fmt.Printf("\nper-compressor steady-state round trips (θ=%.2f where used):\n", sweepTheta)
	for _, method := range []string{"fp32", "fft", "dct", "topk", "qsgd", "terngrad"} {
		c, err := compress.New(method, sweepTheta)
		if err != nil {
			fmt.Printf("%-10s unavailable: %v\n", method, err)
			continue
		}
		var msg []byte
		compRate, _ := measure(func() {
			msg, err = c.AppendCompress(msg[:0], grad)
			if err != nil {
				panic(err)
			}
		})
		decRate, _ := measure(func() {
			if err := c.DecompressInto(rec, msg); err != nil {
				panic(err)
			}
		})
		_, rtAllocs := measure(func() {
			msg, err = c.AppendCompress(msg[:0], grad)
			if err != nil {
				panic(err)
			}
			if err := c.DecompressInto(rec, msg); err != nil {
				panic(err)
			}
		})
		ratio := bytes / float64(len(msg))
		fmt.Printf("%-10s %7.2fx  compress %6.2f GB/s  decompress %6.2f GB/s  %4d allocs/op\n",
			method, ratio, compRate/1e9, decRate/1e9, rtAllocs)
		rep.Compressors = append(rep.Compressors, compressorResult{
			Method: method, Theta: sweepTheta, Ratio: ratio,
			CompressBytesPS: compRate, DecompressBytesPS: decRate, AllocsPerOp: rtAllocs,
		})
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}

	// Feed the measured rates into the Sec. 3.3 model.
	t := perfmodel.Throughputs{Tm: tm, Tf: tf, Tp: tp, Ts: ts}
	fmt.Printf("\nminimal beneficial compression ratio (Eq. 4) with these rates:\n")
	tab := &stats.Table{Headers: []string{"network", "min ratio k", "verdict"}}
	for _, net := range []struct {
		name  string
		tcomm float64
	}{
		{"1 Gbps Ethernet", 1e9 / 8},
		{"10 Gbps Ethernet", 10e9 / 8},
		{"56 Gbps FDR InfiniBand", 56e9 / 8},
		{"100 Gbps EDR InfiniBand", 100e9 / 8},
	} {
		k, err := perfmodel.MinBeneficialRatio(net.tcomm, t)
		if err != nil {
			tab.AddRow(net.name, "-", "compression cannot help")
			continue
		}
		tab.AddRow(net.name, k, fmt.Sprintf("compress when ratio > %.1f", k))
	}
	fmt.Print(tab.String())
	fmt.Printf("\nno ratio helps on links faster than %.1f Gbps with this pipeline\n",
		perfmodel.MaxTolerableTcomm(t)*8/1e9)
}
