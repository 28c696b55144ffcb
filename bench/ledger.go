package main

// The kernel and side-layer ledger of a traced run: everything below and
// beside the training step that has a public entry point, measured once
// per traced run. None of it is gated; it says where a change in the
// layer metrics of the replay comes from.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"fftgrad/internal/cfft"
	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/f16"
	"fftgrad/internal/netsim"
	"fftgrad/internal/obs"
	"fftgrad/internal/optim"
	"fftgrad/internal/pack"
	"fftgrad/internal/perfmodel"
	"fftgrad/internal/ps"
	"fftgrad/internal/quant"
	"fftgrad/internal/serve"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/topk"
	"fftgrad/internal/trace"
)

const (
	kernelReps  = 5  // median of this many calls after one warm-up call
	psIters     = 40 // ps.Train iterations per worker
	abIters     = 80 // iterations of each feature-overhead run, warm-up included
	ledgerRanks = 8  // rank count of the counted (never timed) collective schedules
)

var ledgerCodecs = []string{"fft", "dct", "topk", "qsgd", "terngrad", "fp32"}

// timeMs returns the median wall time of fn in ms over kernelReps calls,
// after one untimed call that fills plan caches and scratch pools.
func timeMs(fn func()) float64 {
	fn()
	d := make([]float64, kernelReps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0).Seconds() * 1e3
	}
	return median(d)
}

type ledger map[string]metric

func (l ledger) put(name string, v float64, unit string) { l[name] = metric{Value: v, Unit: unit} }

// kernelLedger times the pipeline primitives (the Sec. 3.3 terms Tm, Tf,
// Ts, Tp) and every registered codec on one real gradient, and checks
// Eq. 1 against the measured FFT codec.
func kernelLedger(l ledger, grad []float32) error {
	n := len(grad)
	bytes := float64(n * 4)

	sig := make([]float64, cfft.NextPow2(n))
	for i, v := range grad {
		sig[i] = float64(v)
	}
	plan := cfft.RealPlanFor(len(sig))
	spec := make([]complex128, plan.SpectrumLen())
	tf := timeMs(func() { plan.Forward(spec, sig) })
	l.put("cfft.rfft_ms", tf, "ms")
	work := make([]complex128, len(spec))
	back := make([]float64, len(sig))
	l.put("cfft.irfft_ms", timeMs(func() { copy(work, spec); plan.Inverse(back, work) }), "ms")

	halves := make([]f16.Bits, n)
	floats := make([]float32, n)
	tm := timeMs(func() { f16.EncodeSlice(halves, grad); f16.DecodeSlice(floats, halves) })
	l.put("f16.roundtrip_ms", tm, "ms")

	mags := make([]float64, n)
	for i, v := range grad {
		mags[i] = math.Abs(float64(v))
	}
	keep := sparsify.KeepCount(n, theta)
	ts := timeMs(func() { topk.KthLargestBucket(mags, keep) })
	l.put("topk.select_ms", ts, "ms")

	lo, hi := grad[0], grad[0]
	for _, v := range grad {
		lo, hi = min(lo, v), max(hi, v)
	}
	q, err := quant.Tune(10, lo, hi, grad[:min(n, 4096)])
	if err != nil {
		return fmt.Errorf("ledger: quantizer tuning: %w", err)
	}
	codes := make([]uint32, n)
	l.put("quant.roundtrip_ms", timeMs(func() { q.EncodeSlice(codes, grad); q.DecodeSlice(floats, codes) }), "ms")

	mask := make([]uint64, pack.BitmapWords(n))
	sparsify.TopKSpatialMask(mask, grad, theta)
	var packed *pack.Sparse
	tp := timeMs(func() { packed = pack.PackMask(grad, mask) })
	l.put("pack.pack_ms", tp, "ms")
	l.put("pack.unpack_ms", timeMs(func() { packed.Unpack(floats) }), "ms")

	var fftRoundTripMs float64
	for _, name := range ledgerCodecs {
		c, err := compress.New(name, theta)
		if err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		var msg []byte
		var cerr error
		enc := timeMs(func() {
			if msg, err = compress.AppendCompress(c, msg[:0], grad); err != nil {
				cerr = err
			}
		})
		dec := timeMs(func() {
			if err := compress.DecompressInto(c, floats, msg); err != nil {
				cerr = err
			}
		})
		if cerr != nil {
			return fmt.Errorf("ledger: codec %s: %w", name, cerr)
		}
		l.put("compress."+name+".encode_ms", enc, "ms")
		l.put("compress."+name+".decode_ms", dec, "ms")
		l.put("compress."+name+".wire_bytes", float64(len(msg)), "B")
		if name == "fft" {
			fftRoundTripMs = enc + dec
		}
	}

	// Eq. 1: one pass through the pipeline costs m(2/Tm + 1/Tf + 1/Tp +
	// 1/Ts); a round trip pays it twice. The f16 figure above is a round
	// trip already, so its one-way rate is bytes over half of it.
	t := perfmodel.Throughputs{
		Tm: bytes / (tm / 2 / 1e3),
		Tf: bytes / (tf / 1e3),
		Tp: bytes / (tp / 1e3),
		Ts: bytes / (ts / 1e3),
	}
	predicted := 2 * perfmodel.CompressionCost(n*4, t) * 1e3
	l.put("perfmodel.codec_error_pct", 100*(fftRoundTripMs-predicted)/fftRoundTripMs, "%")
	// The fastest link on which this pipeline can still pay off at any
	// ratio (where Eq. 4's denominator reaches zero). On a CPU it sits
	// far below 10 GbE, where Eq. 4 has no solution at all.
	l.put("perfmodel.max_tcomm_gbps", perfmodel.MaxTolerableTcomm(t)*8/1e9, "Gb/s")
	return nil
}

// roundTripAllocs counts the heap allocations of one steady-state
// exchange worth of codec work for w on grad: every bucket encoded once
// and decoded `ranks` times. The GC is paused so a collection cannot
// empty the scratch pools mid-count.
func roundTripAllocs(w workload, grad []float32) (float64, error) {
	bk := collective.MakeBuckets(len(grad), w.bucket)
	comps := make([]compress.Compressor, bk.Count())
	msgs := make([][]byte, bk.Count())
	for b := range comps {
		comps[b] = w.codec()
	}
	recon := make([]float32, len(grad))
	roundTrip := func() error {
		for b, c := range comps {
			lo, hi := bk.Range(b)
			var err error
			if msgs[b], err = compress.AppendCompress(c, msgs[b][:0], grad[lo:hi]); err != nil {
				return err
			}
			for r := 0; r < ranks; r++ {
				if err := compress.DecompressInto(c, recon[lo:hi], msgs[b]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for i := 0; i < 2; i++ { // warm pools, plans and tuned quantizers
		if err := roundTrip(); err != nil {
			return 0, err
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	if err := roundTrip(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - m0), nil
}

// perCallUs runs fn `calls` times on p goroutines in lockstep (fn is a
// collective) and returns rank 0's median time per call in µs.
func perCallUs(p, calls int, fn func(rank int) error) (float64, error) {
	d := make([]float64, calls)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				t0 := time.Now()
				if err := fn(r); err != nil {
					errs[r] = err
					return
				}
				if r == 0 {
					d[i] = time.Since(t0).Seconds() * 1e6
				}
			}
		}(r)
	}
	wg.Wait()
	return median(d), errors.Join(errs...)
}

// commLedger times the transports at P = ranks and counts the bytes the
// three collective schedules move at eight ranks. Eight ranks on two
// cores say nothing about wall-clock scaling, so those are counts only.
func commLedger(l ledger, fftBytes, fp32Bytes int) error {
	payload := make([]byte, fftBytes)
	cl := comm.NewCluster(ranks)
	cms := make([]*comm.Comm, ranks)
	for r := range cms {
		cms[r] = cl.Rank(r)
	}
	us, _ := perCallUs(ranks, 200, func(r int) error { cms[r].Allgather(payload); return nil })
	l.put("comm.allgather_inproc_us", us, "us")
	us, _ = perCallUs(ranks, 200, func(r int) error { cms[r].Broadcast(payload, 0); return nil })
	l.put("comm.broadcast_inproc_us", us, "us")

	tcp, err := comm.StartLocalTCPCluster(ranks)
	if err != nil {
		return fmt.Errorf("ledger: tcp loopback: %w", err)
	}
	defer func() {
		for _, c := range tcp {
			c.Close()
		}
	}()
	for _, c := range []struct {
		name string
		size int
	}{{"comm.tcp_allgather_fft_ms", fftBytes}, {"comm.tcp_allgather_fp32_ms", fp32Bytes}} {
		buf := make([]byte, c.size)
		us, err := perCallUs(ranks, 10, func(r int) error { _, err := tcp[r].Allgather(buf); return err })
		if err != nil {
			return fmt.Errorf("ledger: tcp allgather: %w", err)
		}
		l.put(c.name, us/1e3, "ms")
	}

	const txName = `fftgrad_comm_tx_bytes_total{transport="inproc"}`
	for _, s := range []collective.Strategy{collective.Ring, collective.Hier, collective.Tree} {
		reg := telemetry.NewRegistry()
		cl8 := comm.NewCluster(ledgerRanks)
		cl8.Instrument(reg)
		cfg := &collective.Config{Strategy: s}
		var wg sync.WaitGroup
		for r := 0; r < ledgerRanks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				collective.New(cfg, cl8.Rank(r)).Allgather(payload)
			}(r)
		}
		wg.Wait()
		l.put("collective."+string(s)+"_bytes_p8", reg.Snapshot()[txName], "B")
		l.put("collective."+string(s)+"_model_ms_10gbe_p8", cfg.WithDefaults().ModelAllgather(netsim.Ethernet10G, ledgerRanks, fftBytes)*1e3, "ms")
	}
	return nil
}

// fabricLedger prices this workload's message on two real fabrics at
// eight ranks: what wire_bytes_per_iter buys where the network is not a
// memory copy. Deterministic given the bytes.
func fabricLedger(l ledger, wireBytes int) {
	l.put("netsim.allgather_ms_10gbe_p8", netsim.Ethernet10G.Allgather(ledgerRanks, wireBytes)*1e3, "ms")
	l.put("netsim.allgather_ms_fdr56_p8", netsim.InfiniBandFDR.Allgather(ledgerRanks, wireBytes)*1e3, "ms")
}

// psLedger times the parameter-server backend on the same model, data
// and codec.
func psLedger(l ledger, w workload, seed int64, train *data.Dataset) error {
	t0 := time.Now()
	res, err := ps.Train(ps.Config{
		Workers: ranks, Batch: w.batch, Epochs: psIters / blockIters, ItersPerEpoch: blockIters, Seed: seed,
		Momentum: momentum, LR: optim.ConstLR(w.lr),
		Model: w.model, Train: train, NewCompressor: w.codec,
	})
	if err != nil {
		return fmt.Errorf("ledger: ps.Train: %w", err)
	}
	// Result.Iterations counts pushes applied; a synchronous round
	// applies one per worker.
	l.put("ps.iter_ms", time.Since(t0).Seconds()*1e3/float64(res.Iterations/ranks), "ms")
	return nil
}

// serveLedger measures the control plane: a job submitted through the
// public HTTP handler until its first epoch event arrives on the SSE
// stream. The job is the default spec, a small two-worker MLP.
func serveLedger(l ledger) error {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	t0 := time.Now()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"epochs":1}`))
	if err != nil {
		return fmt.Errorf("ledger: serve submit: %w", err)
	}
	var info serve.Info
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("ledger: serve submit: status %d: %v", resp.StatusCode, err)
	}
	ev, err := http.Get(ts.URL + "/jobs/" + info.ID + "/events")
	if err != nil {
		return fmt.Errorf("ledger: serve events: %w", err)
	}
	defer ev.Body.Close()
	sc := bufio.NewScanner(ev.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data:")
		if !ok {
			continue
		}
		var e serve.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return fmt.Errorf("ledger: serve event: %w", err)
		}
		switch e.Type {
		case "epoch":
			l.put("serve.submit_to_first_epoch_ms", time.Since(t0).Seconds()*1e3, "ms")
			return nil
		case "failed", "canceled", "halted":
			return fmt.Errorf("ledger: serve job ended %s: %s", e.Type, e.Error)
		}
	}
	return fmt.Errorf("ledger: serve event stream ended before the first epoch: %v", sc.Err())
}

// overheadLedger measures what each optional feature adds to an
// iteration of w, as interleaved feature/base pairs. The real plan runs
// it on wide_fp32, the shortest iteration the benchmark has, where a
// fixed cost is the largest share. These features
// are off in every end-to-end run, so they move no end-to-end metric.
func overheadLedger(l ledger, w workload, seed int64) error {
	train := w.data(seed)
	iterUs := func(mod func(*dist.Config)) (float64, error) {
		cfg := w.config(seed, train)
		cfg.Epochs = abIters / blockIters
		var ts []time.Time
		cfg.OnEpoch = func(dist.EpochStats) { ts = append(ts, time.Now()) }
		if mod != nil {
			mod(&cfg)
		}
		if _, err := dist.Train(cfg); err != nil {
			return 0, err
		}
		blockUs := make([]float64, 0, len(ts))
		for i := warmBlocks; i < len(ts); i++ {
			blockUs = append(blockUs, ts[i].Sub(ts[i-1]).Seconds()*1e6)
		}
		return quietest(blockUs, quietBlocks) / quietIters, nil
	}
	features := []struct {
		name string
		mod  func(*dist.Config)
	}{
		{"trace", func(c *dist.Config) { c.Tracer = trace.New(ranks, 256*trace.DefaultEventsPerIteration) }},
		{"obs", func(c *dist.Config) { c.Profiler = obs.New(ranks, 0) }},
		{"telemetry", func(c *dist.Config) { c.Telemetry = telemetry.NewRegistry() }},
		{"guard", func(c *dist.Config) { c.Guard = guardConfig() }},
	}
	for _, f := range features {
		with, err := iterUs(f.mod)
		if err != nil {
			return fmt.Errorf("ledger: %s overhead run: %w", f.name, err)
		}
		base, err := iterUs(nil)
		if err != nil {
			return fmt.Errorf("ledger: base overhead run: %w", err)
		}
		l.put(f.name+".overhead_us_per_iter", with-base, "us")
	}
	return nil
}
