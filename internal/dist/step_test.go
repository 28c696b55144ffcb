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

// TestExchangerTable runs the same seed through every exchanger × bucket
// layout × instrumentation cell. The step is written once, so what a cell
// switches on may only change how bytes move: per-epoch training loss
// must match bit for bit across all cells sharing a bucket count, and the
// one-bucket column must match the unbucketed one — the monolithic
// exchange is the one-bucket case of the pipeline, not a separate branch.
// (Bounded staleness stays out: a peer missing the grace budget on a
// loaded box folds stale, by design.)
func TestExchangerTable(t *testing.T) {
	base := func() Config {
		cfg := blobCfg(61)
		cfg.Epochs = 2
		cfg.NewCompressor = func() compress.Compressor { return feedback.New(compress.NewFFT(0.5)) }
		return cfg
	}
	buckets := []struct {
		name  string
		bytes int
	}{
		{"unbucketed", 0},
		{"one-bucket", 1 << 20},
		{"four-buckets", fourBuckets(base())},
	}
	extras := []struct {
		name string
		set  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"guard", func(c *Config) { c.Guard = fullGuard() }},
		{"observed", func(c *Config) {
			c.Tracer = trace.New(c.Workers, 64*trace.DefaultEventsPerIteration)
			c.Profiler = obs.New(c.Workers, 256)
			c.Telemetry = telemetry.NewRegistry()
		}},
	}
	losses := map[string][]uint64{} // bucket layout → the first cell's loss bits
	for _, bk := range buckets {
		for _, mesh := range []bool{false, true} {
			for _, ex := range extras {
				cfg := base()
				if bk.bytes > 0 {
					cfg.Collective = &collective.Config{BucketBytes: bk.bytes}
				}
				name := "barrier/" + bk.name + "/" + ex.name
				if mesh {
					cfg.Fault = &FaultConfig{Cluster: faultClusterCfg()}
					name = "cluster/" + bk.name + "/" + ex.name
				}
				ex.set(&cfg)
				res, err := Train(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var bits []uint64
				for _, e := range res.Epochs {
					bits = append(bits, math.Float64bits(e.TrainLoss))
				}
				want, seen := losses[bk.name]
				if !seen {
					losses[bk.name] = bits
					continue
				}
				if fmt.Sprint(bits) != fmt.Sprint(want) {
					t.Errorf("%s: per-epoch loss bits %x differ from the first %s cell's %x", name, bits, bk.name, want)
				}
			}
		}
	}
	if fmt.Sprint(losses["one-bucket"]) != fmt.Sprint(losses["unbucketed"]) {
		t.Errorf("one bucket %x differs from unbucketed %x", losses["one-bucket"], losses["unbucketed"])
	}
	if fmt.Sprint(losses["four-buckets"]) == fmt.Sprint(losses["unbucketed"]) {
		t.Error("four buckets reproduced the unbucketed losses: the layouts were not distinct")
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
