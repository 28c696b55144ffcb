package experiments

import (
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/feedback"
	"fftgrad/internal/models"
	"fftgrad/internal/netsim"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/pack"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/stats"
	"fftgrad/internal/topk"
)

// ablations returns the design-choice studies DESIGN.md calls out, beyond
// the paper's own figures.
func ablations() []Experiment {
	return []Experiment{
		{"abl-transform", "FFT vs DCT sparsification (ratio and error at equal θ)", AblTransform},
		{"abl-quant", "FFT sparsification with vs without range quantization", AblQuant},
		{"abl-select", "Top-k selection strategies: sort vs quickselect vs bucket", AblSelect},
		{"abl-pack", "Parallel vs serial sparse packing", AblPack},
		{"abl-schedule", "θ schedules: fixed vs step-drop vs θ²=Lη coupling", AblSchedule},
		{"abl-collective", "FFT allgather vs a spectra ring vs dense ring, from measured mask unions", AblCollective},
		{"abl-feedback", "Error feedback and momentum correction at extreme θ", AblFeedback},
		{"abl-bitmap", "Raw vs RLE status-vector encoding (lifting the Fig. 6 ceiling)", AblBitmap},
		{"abl-chunk", "Whole-gradient vs bucketed compression", AblChunk},
	}
}

// AblChunk sweeps the bucket size of FFT compression — the splitter
// training uses, collective.MakeBuckets with one codec per bucket —
// against the whole-gradient pipeline: ratios and errors stay comparable
// on a homogeneous gradient, while a layer-like gradient whose regions
// differ by orders of magnitude needs bucket-local quantizer ranges.
func AblChunk(o Options) error {
	n := 1 << 18
	if o.Quick {
		n = 1 << 15
	}
	g := correlatedGradient(n, o.Seed)

	// bucketed round-trips grad through `buckets` independent FFT codecs
	// and returns the reconstruction and the total wire bytes.
	bucketed := func(grad []float32, buckets int, theta float64) ([]float32, int, error) {
		bk := collective.MakeBuckets(n, 4*n/buckets)
		rec := make([]float32, n)
		wire := 0
		for b := 0; b < bk.Count(); b++ {
			lo, hi := bk.Range(b)
			c := compress.NewFFT(theta)
			msg, err := c.AppendCompress(nil, grad[lo:hi])
			if err != nil {
				return nil, 0, err
			}
			if err := c.DecompressInto(rec[lo:hi], msg); err != nil {
				return nil, 0, err
			}
			wire += len(msg)
		}
		return rec, wire, nil
	}

	t := &stats.Table{Headers: []string{"configuration", "ratio", "relL2 err", "codec ms"}}
	measure := func(name string, buckets int) (float64, error) {
		start := time.Now()
		rec, wire, err := bucketed(g, buckets, 0.85)
		if err != nil {
			return 0, err
		}
		el := time.Since(start).Seconds() * 1e3
		relErr := stats.RelL2(g, rec)
		t.AddRow(name, float64(4*n)/float64(wire), relErr, el)
		return relErr, nil
	}
	whole, err := measure("fft", 1)
	if err != nil {
		return err
	}
	var worstErr float64
	for _, buckets := range []int{16, 4} {
		e, err := measure(fmt.Sprintf("fft x %d buckets", buckets), buckets)
		if err != nil {
			return err
		}
		if e > worstErr {
			worstErr = e
		}
	}
	o.printf("chunk-size ablation on a homogeneous %d-element gradient:\n%s", n, t.String())
	o.printf("CHECK bucketing keeps error within 1.5x of whole-gradient: %v (%.4f vs %.4f)\n",
		worstErr <= whole*1.5, worstErr, whole)

	// Layer-like gradient: region scales differ 100x.
	mixed := make([]float32, n)
	for i := 0; i < n/2; i++ {
		mixed[i] = g[i] * 100
		mixed[n/2+i] = g[n/2+i]
	}
	smallErr := func(buckets int) (float64, error) {
		rec, _, err := bucketed(mixed, buckets, 0.5)
		if err != nil {
			return 0, err
		}
		return stats.RelL2(mixed[n/2:], rec[n/2:]), nil
	}
	we, err := smallErr(1)
	if err != nil {
		return err
	}
	ce, err := smallErr(2)
	if err != nil {
		return err
	}
	o.printf("CHECK bucket-local ranges reconstruct the small-scale region better: %v (%.4f vs %.4f)\n",
		ce < we, ce, we)
	return nil
}

// AblBitmap revisits Fig. 6 with a run-length-coded status vector: the
// raw bitmap caps the ratio at 32 regardless of sparsity; RLE removes the
// cap once the bitmap's zero-word runs dominate.
func AblBitmap(o Options) error {
	n := 6_400_000
	if o.Quick {
		n = 640_000
	}
	g := correlatedGradient(n, o.Seed)

	t := &stats.Table{Headers: []string{"kept frac", "raw-bitmap ratio", "RLE-bitmap ratio"}}
	var rawAt001, rleAt001 float64
	for _, kf := range []float64{0.15, 0.05, 0.01, 0.001} {
		work := append([]float32(nil), g...)
		mask := sparsify.TopKSpatial(work, 1-kf)
		sp := pack.PackMask(work, mask)
		raw := float64(n*4) / float64(sp.WireBytes())
		rle := float64(n*4) / float64(sp.WireBytesRLE())
		if kf == 0.001 {
			rawAt001, rleAt001 = raw, rle
		}
		t.AddRow(kf, raw, rle)
	}
	o.printf("status-vector encoding ablation (%d MB gradient):\n%s", n*4>>20, t.String())
	o.printf("CHECK raw bitmap caps the ratio at 32: %v (%.1f at 0.1%% kept)\n",
		rawAt001 < 32, rawAt001)
	o.printf("CHECK RLE lifts the ceiling well past 32: %v (%.0f at 0.1%% kept)\n",
		rleAt001 > 64, rleAt001)
	return nil
}

// AblTransform compares the FFT compressor against its DCT ablation at
// the paper's settings: equal value payload, 2x bitmap for the DCT (so a
// slightly lower ratio), equal-or-better reconstruction error thanks to
// the DCT's freedom from wrap-around discontinuity.
func AblTransform(o Options) error {
	n := 1 << 18
	if o.Quick {
		n = 1 << 14
	}
	g := correlatedGradient(n, o.Seed)
	t := &stats.Table{Headers: []string{"compressor", "ratio", "relL2 err"}}
	type result struct{ ratio, err float64 }
	out := map[string]result{}
	for _, c := range []compress.Compressor{compress.NewFFT(0.85), compress.NewDCT(0.85)} {
		msg, err := c.AppendCompress(nil, g)
		if err != nil {
			return err
		}
		rec := make([]float32, n)
		if err := c.DecompressInto(rec, msg); err != nil {
			return err
		}
		r := result{ratio: compress.Ratio(n, msg), err: stats.RelL2(g, rec)}
		out[c.Name()] = r
		t.AddRow(c.Name(), r.ratio, r.err)
	}
	o.printf("transform ablation at θ=0.85, 10-bit quantization:\n%s", t.String())
	o.printf("CHECK DCT ratio in [0.7,1.0]x of FFT (same values, 2x bitmap): %v\n",
		out["dct"].ratio >= out["fft"].ratio*0.7 && out["dct"].ratio <= out["fft"].ratio)
	o.printf("CHECK DCT error within 1.5x of FFT: %v (%.4f vs %.4f)\n",
		out["dct"].err <= out["fft"].err*1.5, out["dct"].err, out["fft"].err)
	return nil
}

// AblQuant isolates the contribution of the range-based quantization
// stage: FFT sparsification alone (32-bit coefficients) vs the full
// pipeline (10-bit), measuring what the quantizer buys in ratio and what
// it costs in error.
func AblQuant(o Options) error {
	n := 1 << 18
	if o.Quick {
		n = 1 << 14
	}
	g := correlatedGradient(n, o.Seed)

	full := compress.NewFFT(0.85) // 10-bit
	wide := compress.NewFFT(0.85)
	wide.QuantBits = 24 // effectively unquantized coefficients

	t := &stats.Table{Headers: []string{"pipeline", "ratio", "relL2 err"}}
	type result struct{ ratio, err float64 }
	results := map[string]result{}
	for name, c := range map[string]*compress.FFT{"fft+10bit": full, "fft+24bit": wide} {
		msg, err := c.AppendCompress(nil, g)
		if err != nil {
			return err
		}
		rec := make([]float32, n)
		if err := c.DecompressInto(rec, msg); err != nil {
			return err
		}
		r := result{ratio: compress.Ratio(n, msg), err: stats.RelL2(g, rec)}
		results[name] = r
		t.AddRow(name, r.ratio, r.err)
	}
	o.printf("quantization ablation (both at θ=0.85):\n%s", t.String())
	gain := results["fft+10bit"].ratio / results["fft+24bit"].ratio
	extra := results["fft+10bit"].err - results["fft+24bit"].err
	o.printf("CHECK 10-bit quantization multiplies the ratio by %.2fx (>1.5x): %v\n",
		gain, gain > 1.5)
	o.printf("CHECK at <=1%% additional relL2 error: %v (+%.4f)\n", extra <= 0.01, extra)
	return nil
}

// AblSelect times the three top-k threshold strategies on the same data;
// all three must return the identical threshold.
func AblSelect(o Options) error {
	n := 1 << 20
	if o.Quick {
		n = 1 << 17
	}
	g := correlatedGradient(n, o.Seed)
	mags := make([]float64, n)
	for i, v := range g {
		m := float64(v)
		if m < 0 {
			m = -m
		}
		mags[i] = m
	}
	k := n / 10

	type strat struct {
		name string
		fn   func([]float64, int) float64
	}
	strats := []strat{
		{"sort", topk.KthLargestSort},
		{"quickselect", topk.KthLargest},
		{"bucket-select", topk.KthLargestBucket},
	}
	t := &stats.Table{Headers: []string{"strategy", "ms", "threshold"}}
	var ref float64
	times := map[string]float64{}
	for i, s := range strats {
		start := time.Now()
		thr := s.fn(mags, k)
		el := time.Since(start).Seconds() * 1e3
		times[s.name] = el
		if i == 0 {
			ref = thr
		} else if thr != ref {
			o.printf("CHECK identical thresholds: false (%s got %g want %g)\n", s.name, thr, ref)
			return nil
		}
		t.AddRow(s.name, el, thr)
	}
	o.printf("selection ablation (n=%d, k=n/10):\n%s", n, t.String())
	o.printf("CHECK identical thresholds: true\n")
	o.printf("CHECK sub-sort strategies beat full sort: %v (sort %.1fms, qs %.1fms, bucket %.1fms)\n",
		times["quickselect"] < times["sort"] && times["bucket-select"] < times["sort"],
		times["sort"], times["quickselect"], times["bucket-select"])
	return nil
}

// AblPack times parallel vs serial packing of a sparse gradient — the
// Sec. 3.2 claim at CPU scale.
func AblPack(o Options) error {
	n := 25_000_000
	if o.Quick {
		n = 2_000_000
	}
	g := correlatedGradient(n, o.Seed)
	sparsify.TopKSpatial(g, 0.85)

	best := func(fn func()) float64 {
		b := 0.0
		for i := 0; i < 3; i++ {
			start := time.Now()
			fn()
			if el := time.Since(start).Seconds(); i == 0 || el < b {
				b = el
			}
		}
		return b
	}
	var par, ser *pack.Sparse
	parT := best(func() { par = pack.PackNonzero(g) })
	serT := best(func() { ser = pack.PackNonzeroSerial(g) })

	o.printf("packing ablation (%d MB sparse gradient, 15%% density, %d CPU(s)):\n",
		n*4>>20, runtime.GOMAXPROCS(0))
	o.printf("  parallel: %.1f ms (%.2f GB/s)\n", parT*1e3, float64(n*4)/parT/1e9)
	o.printf("  serial:   %.1f ms (%.2f GB/s)\n", serT*1e3, float64(n*4)/serT/1e9)
	o.printf("  speedup:  %.1fx (paper: 689x on a 5120-core V100)\n", serT/parT)
	o.printf("CHECK identical output: %v\n", len(par.Values) == len(ser.Values))
	// At full size the prefix-sum passes amortize and parallel must win;
	// at quick size fixed overheads dominate, so only a loose bound holds.
	bound := 1.2
	if o.Quick {
		bound = 4.0
	}
	o.printf("CHECK parallel within %.1fx of serial (wins at full size): %v\n",
		bound, parT <= serT*bound)
	return nil
}

// AblSchedule compares the three θ schedules end to end on the same
// budget: fixed aggressive θ, the paper's step-drop recovery, and the
// Theorem 3.5 θ²=Lη coupling.
func AblSchedule(o Options) error {
	epochs := 6
	if o.Quick {
		epochs = 4
	}
	train, test := data.GaussianBlobs(3072+512, 8, 24, 0.9, o.Seed).Split(3072)
	lr := optim.ConstLR(0.05)

	run := func(sched sparsify.Schedule) (loss float64, avgTheta float64) {
		cfg := dist.Config{
			Workers: 4, Batch: 16, Epochs: epochs, Seed: o.Seed,
			Momentum:      0.9,
			LR:            lr,
			Model:         func(s int64) *nn.Network { return models.MLP(24, 48, 8, s) },
			Train:         train,
			Test:          test,
			NewCompressor: func() compress.Compressor { return compress.NewFFT(0) },
			ThetaSchedule: sched,
		}
		res, err := dist.Train(cfg)
		if err != nil {
			o.printf("schedule run failed: %v\n", err)
			return 99, 0
		}
		var sum float64
		for _, ep := range res.Epochs {
			sum += ep.Theta
		}
		return res.Epochs[len(res.Epochs)-1].TrainLoss, sum / float64(len(res.Epochs))
	}

	fixedLoss, _ := run(sparsify.Const(0.9))
	stepLoss, _ := run(sparsify.StepDrop{Initial: 0.9, Final: 0, DropEpoch: epochs / 2})
	coupledLoss, coupledTheta := run(sparsify.LRCoupled{L: 10, LR: lr.LR, Cap: 0.95})

	t := &stats.Table{Headers: []string{"schedule", "final loss"}}
	t.AddRow("fixed θ=0.9", fixedLoss)
	t.AddRow("step-drop 0.9→0", stepLoss)
	t.AddRow("θ²=Lη coupling", coupledLoss)
	o.printf("θ-schedule ablation (%d epochs):\n%s", epochs, t.String())
	o.printf("coupled schedule ran at mean θ=%.2f (compressing every epoch)\n", coupledTheta)
	o.printf("CHECK both diminishing schedules beat fixed θ=0.9: %v (%.4f, %.4f vs %.4f)\n",
		stepLoss < fixedLoss && coupledLoss < fixedLoss, stepLoss, coupledLoss, fixedLoss)
	return nil
}

// AblCollective measures what ROADMAP item 10 asked before keeping a
// sparse allreduce: can a ring reduce-scatter + allgather carry this
// codec's FFT spectra for fewer bytes than allgather of its messages (the
// paper's workaround, Fig. 11)? Each ring hop ships one 64-bin-aligned
// chunk's bitmap plus its partial sums over the union of the keep masks
// summed so far, so the answer is set by how fast that union fills. The
// union is measured on P ranks' FFT keep masks, for correlatedGradient and
// for real gradients of wide_fft's model on batches of 4, and priced by
// the ring's own segment accounting with fp32 or fp16 partial sums, beside
// FFT allgather and the dense ring. The CHECK lines name the winner.
func AblCollective(o Options) error {
	const theta = 0.85
	ps := []int{8, 16, 32}
	pmax := ps[len(ps)-1]
	net := models.MLP(256, 560, 32, o.Seed) // n = 476,032
	n := net.NumParams()
	ds := data.GaussianBlobs(4*pmax, 32, 256, 3.0, o.Seed)
	inputs := []struct {
		name string
		grad func(r int) []float32
	}{
		{"correlatedGradient", func(r int) []float32 { return correlatedGradient(n, o.Seed+int64(r)) }},
		{"MLP gradient", func(r int) []float32 {
			x, labels := ds.Batch([]int{4 * r, 4*r + 1, 4*r + 2, 4*r + 3})
			net.ZeroGrads()
			_, dl := nn.SoftmaxCE{}.Loss(net.Forward(x, true), labels)
			net.Backward(dl)
			return net.FlattenGrads(make([]float32, n))
		}},
	}
	names := []string{"FFT allgather", "spectra ring, fp32 sums", "spectra ring, fp16 sums", "dense ring"}
	fdr := netsim.InfiniBandFDR
	checks := ""
	for _, input := range inputs {
		masks := make([][]uint64, pmax)
		var spec sparsify.Spectrum
		for r := range masks {
			sparsify.FFT.AnalyzeHalf(&spec, input.grad(r), theta, nil) // the codec's mask
			masks[r] = append([]uint64(nil), spec.Mask...)
		}
		msg, err := compress.NewFFT(theta).AppendCompress(nil, input.grad(0))
		if err != nil {
			return err
		}
		bins := sparsify.FFT.Bins(spec.N)
		t := &stats.Table{Headers: []string{"P", "u measured", "u independent", "exchange", "per-rank KB", "x allgather", "FDR ms"}}
		for _, p := range ps {
			ring := func(b int) float64 { return float64(2*(p-1))*fdr.Latency + float64(b)/fdr.Bandwidth }
			b32, b16 := ringBytes(masks[:p], 8), ringBytes(masks[:p], 4) // two values per complex bin
			sent := []int{(p - 1) * len(msg), b32, b16, 2 * (p - 1) * 4 * n / p}
			secs := []float64{fdr.Allgather(p, len(msg)), ring(b32), ring(b16), fdr.RingAllreduce(p, 4*n)}
			best := 0
			for i, b := range sent {
				u, ui := "", ""
				if i == 0 {
					u = fmt.Sprintf("%.3f", float64(unionBits(masks, 0, p, 0, len(spec.Mask)))/float64(bins))
					ui = fmt.Sprintf("%.3f", unionDensity(float64(spec.Kept)/float64(bins), p))
				}
				t.AddRow(p, u, ui, names[i], float64(b)/1024, float64(b)/float64(sent[0]), secs[i]*1e3)
				if b < sent[best] {
					best = i
				}
			}
			checks += fmt.Sprintf("CHECK %s P=%d: fewest bytes: %s (fp32 spectra ring %.2fx, fp16 %.2fx FFT allgather)\n",
				input.name, p, names[best], float64(b32)/float64(sent[0]), float64(b16)/float64(sent[0]))
		}
		o.printf("collective ablation, %s (n=%d, %d bins, θ=%.2f, FFT message %d B):\n%s",
			input.name, n, bins, theta, len(msg), t.String())
	}
	o.printf("%s", checks)
	return nil
}

// ringBytes is the busiest rank's send volume in a ring reduce-scatter +
// allgather of sparse spectra, v bytes per kept bin: at step t rank r
// sends chunk r−t summed over ranks r−t..r, then, in the allgather half,
// the complete chunk r+1−t; every segment is its chunk's bitmap plus v
// bytes per bin of its union.
func ringBytes(masks [][]uint64, v int) int {
	p, words := len(masks), len(masks[0])
	seg := func(c, k int) int {
		lo, hi := c*words/p, (c+1)*words/p
		return 8*(hi-lo) + v*unionBits(masks, c, k, lo, hi)
	}
	most := 0
	for r := 0; r < p; r++ {
		b := 0
		for t := 0; t < p-1; t++ {
			b += seg((r-t+p)%p, t+1) + seg((r+1-t+p)%p, p)
		}
		most = max(most, b)
	}
	return most
}

// unionBits counts the bits set in any of the k masks from masks[c] on
// (wrapping around) within words [lo, hi).
func unionBits(masks [][]uint64, c, k, lo, hi int) int {
	set := 0
	for w := lo; w < hi; w++ {
		var u uint64
		for j := 0; j < k; j++ {
			u |= masks[(c+j)%len(masks)][w]
		}
		set += bits.OnesCount64(u)
	}
	return set
}

// unionDensity returns the expected fraction of positions present in the
// union of p independent random masks of density d, 1 − (1−d)^p: the
// reference AblCollective's measured unions are read against.
func unionDensity(d float64, p int) float64 {
	u := 1.0
	for i := 0; i < p; i++ {
		u *= 1 - d
	}
	return 1 - u
}

// AblFeedback measures what the DGC-style heuristics buy on top of
// vanilla Top-k at an extreme drop ratio (momentum 0, where raw error
// feedback is well-behaved).
func AblFeedback(o Options) error {
	epochs := 4
	if o.Quick {
		epochs = 3
	}
	train, test := data.GaussianBlobs(2560, 8, 16, 1.0, o.Seed).Split(2048)
	run := func(newC func() compress.Compressor, momentum float64) float64 {
		res, err := dist.Train(dist.Config{
			Workers: 4, Batch: 16, Epochs: epochs, Seed: o.Seed,
			Momentum:      momentum,
			LR:            optim.ConstLR(0.05),
			Model:         func(s int64) *nn.Network { return models.MLP(16, 32, 8, s) },
			Train:         train,
			Test:          test,
			NewCompressor: newC,
		})
		if err != nil {
			o.printf("feedback run failed: %v\n", err)
			return 99
		}
		return res.Epochs[len(res.Epochs)-1].TrainLoss
	}
	const theta = 0.99
	vanilla := run(func() compress.Compressor { return compress.NewTopK(theta) }, 0)
	ef := run(func() compress.Compressor { return feedback.New(compress.NewTopK(theta)) }, 0)
	mc := run(func() compress.Compressor {
		return feedback.NewMomentumCorrected(compress.NewTopK(theta), 0.9)
	}, 0)

	t := &stats.Table{Headers: []string{"variant", "final loss"}}
	t.AddRow("vanilla top-k", vanilla)
	t.AddRow("+ error feedback", ef)
	t.AddRow("+ momentum correction", mc)
	o.printf("feedback ablation at θ=%.2f (%d epochs, plain SGD):\n%s", theta, epochs, t.String())
	o.printf("CHECK error feedback beats vanilla: %v (%.4f vs %.4f)\n", ef < vanilla, ef, vanilla)
	o.printf("CHECK momentum correction beats vanilla: %v (%.4f vs %.4f)\n", mc < vanilla, mc, vanilla)
	return nil
}
