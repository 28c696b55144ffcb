package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/feedback"
	"fftgrad/internal/obs"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// fourBuckets is the BucketBytes that splits cfg's gradient into four.
func fourBuckets(cfg Config) int {
	n := cfg.Model(cfg.Seed).NumParams()
	return (n + 3) / 4 * 4
}

// TestExchangerTable is the one pin of the synchronous class: runtimes
// that compute the same SGD step from the same samples, differing only in
// how bytes move. Each cell runtime/layout/extra/codec must end on its
// layout's barrier/plain reference cell's Final.Params bit for bit, and
// (except sync PS) match every epoch's loss and accuracy bits. The
// reference cell is rerun once per codec, which pins determinism.
//
//   - Block 1, codec × runtime (unbucketed, plain): barrier, the
//     fault-free cluster, hier with whole and ragged groups, tree and sync
//     PS, over fp32, fft, dct and topk.
//   - Block 2, layout × instrumentation (error-feedback fft, whose
//     residuals are per bucket): barrier and cluster × {plain, tracer,
//     profiler + telemetry, full guard} × {unbucketed, one bucket, four
//     buckets}, plus sync PS × {plain, tracer, profiler} unbucketed (PS
//     takes neither buckets nor guard). One bucket must equal unbucketed
//     — the monolithic exchange is the pipeline's one-bucket case — and
//     four buckets must differ from it.
//
// Sync PS cells compare parameters only: the server reports the mean loss
// over every worker's pushes, BSP reports rank 0's, so the two epoch
// losses are different quantities of the same step.
//
// Outside the class, each behind its own gate:
//   - async PS applies pushes in arrival order; its row here only has to
//     converge (final accuracy ≥ 0.8);
//   - bounded staleness K > 0 folds a peer that misses the grace budget
//     stale, by design (TestBoundedStalenessGate);
//   - gossip averages with neighbours, not the world
//     (TestGossipGate);
//   - an elastic join changes the world mid-run (TestElasticJoinGate);
//   - adapt picks the codec from measured rates
//     (TestAdaptBypassesOnFastFabric, TestAdaptKeepsCompressingOnSlowFabric).
func TestExchangerTable(t *testing.T) {
	base := func(codec func() compress.Compressor) Config {
		cfg := blobCfg(61)
		cfg.Epochs = 2
		cfg.NewCompressor = codec
		return cfg
	}
	type variant struct {
		name string
		set  func(*Config)
	}
	plain := variant{"plain", func(*Config) {}}
	barrier, unbucketed := variant{"barrier", plain.set}, variant{"unbucketed", plain.set}
	cluster := variant{"cluster", func(c *Config) { c.Fault = &FaultConfig{Cluster: faultClusterCfg()} }}
	syncPS := variant{"syncps", func(c *Config) { c.PS = &PSConfig{} }}
	withCollective := func(name string, col collective.Config) variant {
		return variant{name, func(c *Config) { c.Collective = &col }}
	}

	// refs memoises each layout × codec's barrier/plain run, so a cell run
	// alone (go test -run) still has its reference.
	refs := map[string]*Result{}
	reference := func(t *testing.T, layout, codec string, cfg Config) *Result {
		key := layout + "/" + codec
		if refs[key] == nil {
			refs[key] = trainCell(t, "the "+key+" reference", cfg)
		}
		return refs[key]
	}
	// cell runs runtime/layout/extra/codec and holds it to its reference,
	// the same layout and codec on the plain barrier. The reference cell
	// itself holds its layout against the unbucketed one: one bucket is
	// the monolithic exchange, four buckets are not.
	cell := func(rt, layout, extra variant, codec string, newCodec func() compress.Compressor) {
		t.Run(rt.name+"/"+layout.name+"/"+extra.name+"/"+codec, func(t *testing.T) {
			cfg := base(newCodec)
			layout.set(&cfg)
			want := reference(t, layout.name, codec, cfg)
			if rt.name == "barrier" && extra.name == "plain" {
				if layout.name == "unbucketed" {
					return
				}
				d := runDiff(want, reference(t, "unbucketed", codec, base(newCodec)), true)
				if one := layout.name == "one-bucket"; one && d != "" {
					t.Errorf("one bucket differs from unbucketed: %s", d)
				} else if !one && d == "" {
					t.Error("four buckets reproduced unbucketed: the layouts were not distinct")
				}
				return
			}
			rt.set(&cfg)
			extra.set(&cfg)
			res := trainCell(t, "the cell", cfg)
			if d := runDiff(res, want, cfg.PS == nil); d != "" {
				t.Errorf("differs from barrier/%s/plain/%s: %s", layout.name, codec, d)
			}
			checkCell(t, cfg, res)
		})
	}

	block1 := []variant{
		barrier,
		{"barrier-rerun", plain.set},
		cluster,
		withCollective("hier2", collective.Config{Strategy: collective.Hier, GroupSize: 2}),
		withCollective("hier3", collective.Config{Strategy: collective.Hier, GroupSize: 3}), // 4 ranks: a ragged last group
		withCollective("tree", collective.Config{Strategy: collective.Tree}),
		syncPS,
	}
	for _, codec := range []struct {
		name string
		new  func() compress.Compressor
	}{
		{"fp32", func() compress.Compressor { return compress.FP32{} }},
		{"fft0.85", func() compress.Compressor { return compress.NewFFT(0.85) }},
		{"dct0.85", func() compress.Compressor { return compress.NewDCT(0.85) }},
		{"topk0.9", func() compress.Compressor { return compress.NewTopK(0.9) }},
	} {
		for _, rt := range block1 {
			cell(rt, unbucketed, plain, codec.name, codec.new)
		}
	}

	const ef = "ef-fft0.5"
	efFFT := func() compress.Compressor { return feedback.New(compress.NewFFT(0.5)) }
	extras := []variant{
		plain,
		{"tracer", func(c *Config) { c.Tracer = trace.New(c.Workers, 64*trace.DefaultEventsPerIteration) }},
		{"profiler", func(c *Config) {
			c.Profiler = obs.New(c.Workers, 256)
			c.Telemetry = telemetry.NewRegistry()
		}},
		{"guard", func(c *Config) { c.Guard = fullGuard() }},
	}
	layouts := []variant{
		unbucketed,
		withCollective("one-bucket", collective.Config{BucketBytes: 1 << 20}),
		withCollective("four-buckets", collective.Config{BucketBytes: fourBuckets(base(nil))}),
	}
	for _, layout := range layouts {
		for _, rt := range []variant{barrier, cluster} {
			for _, extra := range extras {
				cell(rt, layout, extra, ef, efFFT)
			}
		}
	}
	for _, extra := range extras[:3] {
		cell(syncPS, unbucketed, extra, ef, efFFT)
	}

	t.Run("asyncps/unbucketed/plain/fp32", func(t *testing.T) {
		cfg := base(nil)
		cfg.PS = &PSConfig{Async: true}
		res := trainCell(t, "the cell", cfg)
		// Stale pushes still converge on this task, not necessarily to
		// the synchronous accuracy.
		if acc := res.Epochs[len(res.Epochs)-1].TestAcc; acc < 0.8 {
			t.Errorf("async PS accuracy %.3f < 0.8", acc)
		}
	})
}

// trainCell trains cfg, failing t when the run errors.
func trainCell(t *testing.T, what string, cfg Config) *Result {
	t.Helper()
	res, err := Train(cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return res
}

// runDiff describes the first difference between two runs' final
// parameter bits and, with epochs, their per-epoch loss and accuracy
// bits; "" when there is none.
func runDiff(got, want *Result, epochs bool) string {
	if len(got.Epochs) != len(want.Epochs) {
		return fmt.Sprintf("%d epochs vs %d", len(got.Epochs), len(want.Epochs))
	}
	g, w := got.Final.Params, want.Final.Params
	if len(g) != len(w) {
		return fmt.Sprintf("%d parameters vs %d", len(g), len(w))
	}
	for i := range w {
		if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
			return fmt.Sprintf("parameter %d of %d: %#x vs %#x", i, len(w), math.Float32bits(g[i]), math.Float32bits(w[i]))
		}
	}
	for i, e := range want.Epochs {
		if o := got.Epochs[i]; epochs && (math.Float64bits(o.TrainLoss) != math.Float64bits(e.TrainLoss) ||
			math.Float64bits(o.TestAcc) != math.Float64bits(e.TestAcc)) {
			return fmt.Sprintf("epoch %d: %+v vs %+v", i, o, e)
		}
	}
	return ""
}

// checkCell makes the side assertions of what the cell switched on: a
// cluster reports no fault, a guard checked drift and intervened nowhere,
// and on the barrier and cluster runtimes a tracer recorded every stage
// on every rank and a profiler committed one populated record per
// iteration.
func checkCell(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	if cfg.Fault != nil {
		if res.Fault == nil {
			t.Error("fault report missing")
		} else if s := res.Fault.Cluster; s.Suspicions != 0 || s.DegradedIterations != 0 || s.Rejoins != 0 {
			t.Errorf("clean run recorded faults: %+v", s)
		}
	}
	if cfg.Guard != nil {
		if g := res.Guard; g == nil || g.DriftChecks == 0 {
			t.Errorf("drift checks never ran: %+v", g)
		} else if g.ScrubbedValues != 0 || g.Anomalies != 0 || g.DriftResyncs != 0 || g.CorruptFrames != 0 {
			t.Errorf("guard intervened on a healthy run: %+v", g)
		}
	}
	if cfg.PS != nil {
		return
	}
	if tr := cfg.Tracer; tr != nil {
		perRank := map[int32]map[trace.Op]int{}
		for _, e := range tr.Events() {
			if perRank[e.Rank] == nil {
				perRank[e.Rank] = map[trace.Op]int{}
			}
			perRank[e.Rank][e.Op]++
		}
		for rank := 0; rank < cfg.Workers; rank++ {
			for _, op := range []trace.Op{trace.OpIteration, trace.OpCompute, trace.OpCompress, trace.OpExchange, trace.OpUpdate} {
				if perRank[int32(rank)][op] == 0 {
					t.Errorf("rank %d recorded no %s spans", rank, op)
				}
			}
		}
	}
	if prof := cfg.Profiler; prof != nil {
		for rank := 0; rank < cfg.Workers; rank++ {
			recs := prof.Records(rank)
			if len(recs) != res.Iterations {
				t.Fatalf("rank %d committed %d records, want %d", rank, len(recs), res.Iterations)
			}
			for _, r := range recs {
				if r.ComputeNs <= 0 || r.ExchEndNs <= 0 || r.EndNs <= r.StartNs {
					t.Fatalf("rank %d iter %d record not populated: %+v", rank, r.Iter, r)
				}
			}
		}
		if s := prof.Summary(true); s.Iterations != int64(res.Iterations) {
			t.Errorf("ledger folded %d iterations, want %d", s.Iterations, res.Iterations)
		}
	}
}

// crashable is a transport whose outage the test controls.
type crashable struct {
	comm.Transport
	down   atomic.Bool
	failed atomic.Int32 // Recvs that reported the outage
}

func (c *crashable) Recv(d time.Duration) (comm.Message, error) {
	if c.down.Load() {
		c.failed.Add(1)
		return comm.Message{}, &comm.OpError{Op: "recv", Rank: c.RankID(), Peer: -1, Err: comm.ErrPeerDown}
	}
	if d > time.Millisecond {
		d = time.Millisecond
	}
	return c.Transport.Recv(d)
}

// crashAt takes the transport down while the at-th message (counted
// across every codec of the rank) is being compressed, and returns once
// the member has seen the outage — so that message is compressed but can
// no longer be delivered. The pipeline compresses beside the previous
// bucket's gather, so the outage waits until `delivered` gathers are
// through: the buckets meant to reach the peers have reached them.
type crashAt struct {
	compress.Compressor
	tr    *crashable
	calls *atomic.Int32
	at    int32

	gathers   *atomic.Int32
	delivered int32
}

func (c crashAt) AppendCompress(dst []byte, g []float32) ([]byte, error) {
	if c.calls.Add(1) == c.at {
		for c.gathers.Load() < c.delivered {
			time.Sleep(100 * time.Microsecond)
		}
		c.tr.down.Store(true)
		// The receiver loop marks the member down after each failed Recv;
		// by the second failure the first mark is in place.
		for c.tr.failed.Load() < 2 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return c.Compressor.AppendCompress(dst, g)
}

// gatedLink counts the gathers that completed and holds the first
// undelivered one until the member has seen the outage, so where the abort
// lands does not depend on how the pipeline's two stages interleave.
type gatedLink struct {
	link
	tr        *crashable
	gathers   *atomic.Int32
	delivered int32
}

func (l gatedLink) gather(iter, b int, msg []byte) (gathered, error) {
	for l.gathers.Load() == l.delivered && l.tr.failed.Load() < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	g, err := l.link.gather(iter, b, msg)
	l.gathers.Add(1)
	return g, err
}

// TestAbortedRoundConservesMass aborts a round after compress — the
// rank's transport dies under bucket `lost` of iteration 1 — and checks
// error-feedback mass conservation bucket by bucket: a delivered bucket's
// residual is previous + gradient − what its message carried, and every
// undelivered bucket ends at exactly previous + gradient, whether its
// message was already built (the fold adds back what compress moved out)
// or not. The outage strikes while bucket `during` is being compressed:
// in the pipelined case that is bucket lost+1, built beside the gather the
// abort lands on.
func TestAbortedRoundConservesMass(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		buckets, lost, during int
	}{
		{"B=1", 1, 0, 0},
		{"B=4 crash between buckets", 4, 2, 2},
		{"B=4 crash under the pipeline", 4, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := blobCfg(71)
			c.Workers = 1
			c.Fault = &FaultConfig{Cluster: faultClusterCfg()}
			if tc.buckets > 1 {
				c.Collective = &collective.Config{BucketBytes: fourBuckets(c)}
			}
			tr := &crashable{Transport: comm.NewMesh(1).Endpoint(0)}
			// Iteration 0 delivers every bucket, iteration 1 those below lost.
			var calls, gathers atomic.Int32
			delivered := int32(tc.buckets + tc.lost)
			c.NewCompressor = func() compress.Compressor {
				return feedback.New(crashAt{compress.NewFFT(0.85), tr, &calls, int32(tc.buckets + tc.during + 1), &gathers, delivered})
			}
			w, err := newWorker(c.withDefaults(), 0, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := w.bk.Count(); got != tc.buckets {
				t.Fatalf("%d buckets, want %d", got, tc.buckets)
			}
			rt := cluster.New(1, c.Fault.Cluster)
			m := rt.Join(tr)
			defer m.Close()
			w.ex = newPipeline(w, gatedLink{&clusterLink{newMesh(w, m, rt, tc.buckets)}, tr, &gathers, delivered})

			rng := rand.New(rand.NewSource(71))
			fill := func() []float32 {
				for i := range w.grad {
					w.grad[i] = float32(rng.NormFloat64())
				}
				return append([]float32(nil), w.grad...)
			}
			// Iteration 0 completes; alone on the mesh the average is the
			// decoded own message, so the residual it leaves is g0 − avg.
			g0 := fill()
			if _, err := w.ex.round(0, true); err != nil {
				t.Fatal(err)
			}
			want := make([]float32, w.n)
			for i := range want {
				want[i] = g0[i] - w.avg[i]
			}

			g1 := fill()
			_, err = w.ex.round(1, true)
			var ab *aborted
			if !errors.As(err, &ab) {
				t.Fatalf("round under a dead transport returned %v, want the aborted outcome", err)
			}
			if ab.bucket != tc.lost {
				t.Fatalf("aborted at bucket %d, want %d", ab.bucket, tc.lost)
			}
			if tc.during > tc.lost && len(ab.msgs) != tc.during+1 {
				t.Fatalf("%d messages built at the abort, want bucket %d's among them", len(ab.msgs), tc.during)
			}
			if err := w.fold(ab, true); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < tc.buckets; b++ {
				lo, hi := w.bk.Range(b)
				neg := make([]float32, hi-lo)
				var norm float64
				for i := lo; i < hi; i++ {
					v := want[i] + g1[i]
					if b < tc.lost {
						v -= w.avg[i] // delivered: its message's share left
					}
					neg[i-lo] = -v
					norm += float64(v) * float64(v)
				}
				// Probe the residual by cancelling the expected one.
				ef := w.comps[b].(*feedback.Compressor)
				ef.AddToResidual(neg)
				if off := ef.ResidualNorm(); off > 1e-5*math.Sqrt(norm) {
					t.Errorf("bucket %d: residual is off previous+gradient by norm %.3g (expected norm %.3g)", b, off, math.Sqrt(norm))
				}
			}
		})
	}
}
