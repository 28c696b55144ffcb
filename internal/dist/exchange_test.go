package dist

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/feedback"
)

// TestAverage pins the one decode-and-sum routine against what each
// runtime hands it: the barrier's all-ones weights reproduce the plain
// mean bit for bit; the mesh's λ^d weights normalise by Σw and bank
// exactly (1−w)/c of the damped reconstruction in the residual; a gossip
// row sums to one whatever became of the neighbours.
func TestAverage(t *testing.T) {
	const p, theta = 4, 0.5
	cfg := blobCfg(81)
	cfg.NewCompressor = func() compress.Compressor { return feedback.New(compress.NewFFT(theta)) }
	cfg = cfg.withDefaults()

	// One message per rank, and what each decodes to.
	n := cfg.Model(cfg.Seed).NumParams()
	rng := rand.New(rand.NewSource(81))
	enc := compress.NewFFT(theta)
	msgs, recon := make([][]byte, p), make([][]float32, p)
	for j := range msgs {
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(rng.NormFloat64())
		}
		var err error
		if msgs[j], err = enc.AppendCompress(nil, g); err != nil {
			t.Fatal(err)
		}
		recon[j] = make([]float32, n)
		if err := enc.DecompressInto(recon[j], msgs[j]); err != nil {
			t.Fatal(err)
		}
	}
	norm := func(v []float32) float64 {
		var s float64
		for _, x := range v {
			s += float64(x) * float64(x)
		}
		return math.Sqrt(s)
	}

	bucketed := &clusterLink{mesh{spi: 4, lambda: 0.9, wt: make([]float32, 0, p)}}
	flat := &clusterLink{mesh{spi: 1, lambda: 0.9, wt: make([]float32, 0, p)}}
	ring := &gossipLink{mesh: mesh{spi: 2, lambda: 0.9}}
	for _, tc := range []struct {
		name string
		g    func() gathered // built inside the row: the links reuse their buffers
		want []float64       // the weight each rank's reconstruction carries
		bits bool            // the result must equal the barrier's plain mean exactly
		row  bool            // a mixing row: the folded weights must sum to one
		bank int             // the rank whose damped share must be in the residual, -1: none
	}{
		{
			name: "barrier: every rank weighs one",
			g:    func() gathered { return gathered{msgs: msgs, wt: []float32{1, 1, 1, 1}} },
			want: []float64{1, 1, 1, 1}, bits: true, bank: -1,
		},
		{
			name: "mesh: fresh contributors only reproduce the barrier",
			g: func() gathered {
				return flat.weigh(&cluster.ExchangeResult{
					Msgs: [][]byte{msgs[0], msgs[1], msgs[2], msgs[3]}, Stale: make([]bool, p), StaleBy: make([]uint64, p), Contributors: 4})
			},
			want: []float64{1, 1, 1, 1}, bits: true, bank: -1,
		},
		{
			name: "mesh: a cache two iterations old weighs λ² and banks the rest",
			g: func() gathered {
				return flat.weigh(&cluster.ExchangeResult{
					Msgs: [][]byte{msgs[0], msgs[1], nil, msgs[3]}, Stale: []bool{false, true, false, false},
					StaleBy: []uint64{0, 2, 0, 0}, Contributors: 3})
			},
			want: []float64{1, 0.81, 0, 1}, bank: 1,
		},
		{
			name: "mesh: a cache of unmeasured age is no part of a bucketed stream",
			g: func() gathered {
				return bucketed.weigh(&cluster.ExchangeResult{
					Msgs: [][]byte{msgs[0], msgs[1], msgs[2], msgs[3]}, Stale: []bool{false, false, true, false},
					StaleBy: make([]uint64, p), Contributors: 4})
			},
			want: []float64{1, 1, 0, 1}, bank: -1,
		},
		{
			name: "gossip: both neighbours fresh",
			g: func() gathered {
				return ring.mix(&cluster.GossipResult{
					Msgs: [][]byte{msgs[1], msgs[3]}, Stale: make([]bool, 2), StaleBy: make([]uint64, 2), PeerWeight: 1.0 / 3}, msgs[0])
			},
			want: []float64{1.0 / 3, 1.0 / 3, 0, 1.0 / 3}, row: true, bank: -1,
		},
		{
			name: "gossip: an absent neighbour's mass reverts to self",
			g: func() gathered {
				return ring.mix(&cluster.GossipResult{
					Msgs: [][]byte{msgs[1]}, Stale: []bool{false}, StaleBy: []uint64{0}, PeerWeight: 1.0 / 3}, msgs[0])
			},
			want: []float64{2.0 / 3, 1.0 / 3, 0, 0}, row: true, bank: -1,
		},
		{
			name: "gossip: a damped neighbour and a wrong-stream cache",
			g: func() gathered {
				return ring.mix(&cluster.GossipResult{
					Msgs: [][]byte{msgs[1], msgs[3]}, Stale: []bool{true, true}, StaleBy: []uint64{2, 1}, PeerWeight: 1.0 / 3}, msgs[0])
			},
			want: []float64{1 - 0.3, 0.3, 0, 0}, row: true, bank: -1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := newWorker(cfg, 0, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			g := tc.g()
			if _, _, err := w.average(w.comps[0], 0, &g); err != nil {
				t.Fatal(err)
			}

			// The float64 reference: Σ want_j·recon_j / Σ want_j.
			var wsum float64
			for _, wt := range tc.want {
				wsum += wt
			}
			var off, size float64
			for i := range w.avg {
				var ref float64
				for j, wt := range tc.want {
					ref += wt * float64(recon[j][i])
				}
				ref /= wsum
				off += (float64(w.avg[i]) - ref) * (float64(w.avg[i]) - ref)
				size += ref * ref
			}
			if math.Sqrt(off) > 1e-6*math.Sqrt(size) {
				t.Errorf("average is off the weighted mean by norm %.3g (mean's norm %.3g)", math.Sqrt(off), math.Sqrt(size))
			}
			if tc.bits {
				// The barrier's loop as it always was: sum, then scale by 1/p.
				plain := make([]float32, n)
				for _, r := range recon {
					for i, v := range r {
						plain[i] += v
					}
				}
				for i := range plain {
					plain[i] *= 1 / float32(p)
					if math.Float32bits(plain[i]) != math.Float32bits(w.avg[i]) {
						t.Fatalf("element %d: %x, the plain mean has %x", i, math.Float32bits(w.avg[i]), math.Float32bits(plain[i]))
					}
				}
			}
			if tc.row {
				// The weights of what was folded sum to one.
				var row float32
				for k, m := range g.msgs {
					if m != nil {
						row += g.wt[k]
					}
				}
				if math.Abs(float64(row)-1) > 1e-6 {
					t.Errorf("mixing row sums to %v", row)
				}
			}

			banked := 0.0
			if tc.bank >= 0 {
				banked = (1 - tc.want[tc.bank]) / float64(g.bank) * norm(recon[tc.bank])
			}
			got := w.comps[0].(*feedback.Compressor).ResidualNorm()
			if math.Abs(got-banked) > 1e-6*(banked+1e-9) {
				t.Errorf("residual norm %.6g, want the withheld share's %.6g", got, banked)
			}
		})
	}
}

// TestBucketedRoundZeroAlloc is the allocation gate over the bucketed
// pipeline: with its caches warm, a four-bucket round — compress ahead on
// the pipeline's own goroutine, gather, decode, average — allocates
// nothing. (The round used to join two fresh goroutines per bucket.)
func TestBucketedRoundZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := blobCfg(83)
	cfg.Workers = 1
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.85) }
	cfg.Collective = &collective.Config{BucketBytes: fourBuckets(cfg)}
	w, err := newWorker(cfg.withDefaults(), 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.bk.Count(); got != 4 {
		t.Fatalf("%d buckets, want 4", got)
	}
	ex := newPipeline(w, newBarrierLink(w, comm.NewCluster(1).Rank(0)))
	defer ex.stop()
	rng := rand.New(rand.NewSource(83))
	for i := range w.grad {
		w.grad[i] = float32(rng.NormFloat64())
	}
	iter := 0
	round := func() {
		if _, err := ex.round(iter, true); err != nil {
			t.Fatal(err)
		}
		iter++
	}
	for i := 0; i < 4; i++ { // warm pools, plans, tuned quantizers, both message buffers
		round()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("a bucketed round allocates %.2f allocs/op, want 0", n)
	}
}

// TestWorkerIterationZeroAlloc is the allocation gate over one whole
// barrier-path iteration of a worker: the local gradient (batch, forward,
// loss, backward), the FFT-compressed round and the momentum step. With
// its buffers built and its caches warm it allocates nothing — also when
// the gradient is rescaled to a largest magnitude of 1 and 4 on
// alternate steps, so that every step re-tunes the quantizer and decodes
// under a new one.
func TestWorkerIterationZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, row := range []struct {
		name string
		peak float32 // the gradient's largest magnitude on odd steps (1 on even ones), 0 for as computed
	}{{"steady", 0}, {"retune", 4}} {
		t.Run(row.name, func(t *testing.T) {
			cfg := blobCfg(84)
			cfg.Workers = 1
			cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.85) }
			w, err := newWorker(cfg.withDefaults(), 0, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			ex := newPipeline(w, newBarrierLink(w, comm.NewCluster(1).Rank(0)))
			defer ex.stop()
			iter, tunings := 0, 0
			var quant [12]byte // the header's eps, min and max words
			step := func() {
				w.gradient()
				if row.peak != 0 {
					var top float32
					for _, g := range w.grad {
						top = max(top, g, -g)
					}
					f := 1 / top
					if iter%2 == 1 {
						f *= row.peak
					}
					for i := range w.grad {
						w.grad[i] *= f
					}
				}
				if _, err := ex.round(iter, true); err != nil {
					t.Fatal(err)
				}
				if q := [12]byte(ex.msgs[iter&1][0][20:32]); q != quant {
					quant = q
					tunings++
				}
				w.sgd.Step(w.net.Data(), w.avg)
				iter++
			}
			for i := 0; i < 4; i++ { // build the layers' buffers, warm pools, plans and quantizers
				step()
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			before := tunings
			if n := testing.AllocsPerRun(20, step); n != 0 {
				t.Errorf("a worker iteration allocates %.2f allocs/op, want 0", n)
			}
			if row.peak != 0 && tunings-before != 21 {
				t.Errorf("%d of 21 steps re-tuned, want all", tunings-before)
			}
		})
	}
}

// TestAverageMatchesDenseLoopBits pins the fused decode-accumulate of
// worker.average against the dense loop it replaced — avg = +0; per
// message, decode and avg += wt·x; then avg *= 1/Σwt — on raw bits, with
// lossless messages full of −0, subnormals and ±Inf (a −0 folded onto the
// cleared sum must come out +0), for the barrier's weights, a damped and
// banked cache, and a missing contributor.
func TestAverageMatchesDenseLoopBits(t *testing.T) {
	const p = 4
	cfg := blobCfg(82)
	cfg.NewCompressor = func() compress.Compressor { return feedback.New(compress.FP32{}) }
	cfg = cfg.withDefaults()
	n := cfg.Model(cfg.Seed).NumParams()
	rng := rand.New(rand.NewSource(82))
	msgs := make([][]byte, p)
	for j := range msgs {
		g := make([]float32, n)
		for i := range g {
			switch rng.Intn(6) {
			case 0:
				g[i] = float32(math.Copysign(0, -1))
			case 1:
				g[i] = math.Float32frombits(uint32(rng.Int31n(1<<23)) | uint32(rng.Intn(2))<<31)
			case 2:
				if rng.Intn(50) == 0 {
					g[i] = float32(math.Inf(rng.Intn(2)*2 - 1))
				}
			default:
				g[i] = float32(rng.NormFloat64())
			}
		}
		msgs[j], _ = compress.FP32{}.AppendCompress(nil, g)
	}
	for _, g := range []gathered{
		{msgs: msgs, wt: []float32{1, 1, 1, 1}},
		{msgs: [][]byte{msgs[0], msgs[1], nil, msgs[3]}, wt: []float32{1, float32(math.Pow(0.9, 3)), 0, 1}, bank: 3},
		{msgs: [][]byte{msgs[0], nil, msgs[2], nil}, wt: []float32{0.5, 0, 0.25, 0}},
	} {
		w, err := newWorker(cfg, 0, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.average(w.comps[0], 0, &g); err != nil {
			t.Fatal(err)
		}
		want, x := make([]float32, n), make([]float32, n)
		var wsum float32
		for k, m := range g.msgs {
			if m == nil {
				continue
			}
			if err := (compress.FP32{}).DecompressInto(x, m); err != nil {
				t.Fatal(err)
			}
			for i, v := range x {
				want[i] += g.wt[k] * v
			}
			wsum += g.wt[k]
		}
		inv := 1 / wsum
		for i := range want {
			want[i] *= inv
			if got := w.avg[i]; math.Float32bits(got) != math.Float32bits(want[i]) && !(got != got && want[i] != want[i]) {
				t.Fatalf("weights %v element %d: %#x, the dense loop has %#x", g.wt, i, math.Float32bits(got), math.Float32bits(want[i]))
			}
		}
	}
}
