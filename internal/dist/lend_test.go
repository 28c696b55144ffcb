package dist

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/feedback"
	"fftgrad/internal/guard"
	"fftgrad/internal/models"
	"fftgrad/internal/nn"
)

// lender stands between a member and its transport and audits the
// receive contract (the cluster package's tests keep the same auditor).
// It lends every received payload in a buffer of its own and records it;
// a Release must name a buffer that is lent and not yet released, and
// poisons it, so a late reader decodes garbage (and the race detector
// sees the write).
type lender struct {
	comm.Transport
	mu   sync.Mutex
	lent map[*byte]bool // by first byte: true while lent, false once released
	bad  []string       // contract breaches
}

func newLender(tr comm.Transport) *lender {
	return &lender{Transport: tr, lent: make(map[*byte]bool)}
}

func (l *lender) Recv(d time.Duration) (comm.Message, error) {
	msg, err := l.Transport.Recv(d)
	if err != nil || msg.Payload == nil {
		return msg, err
	}
	b := make([]byte, len(msg.Payload), len(msg.Payload)+1) // cap ≥ 1: every buffer has an address
	copy(b, msg.Payload)
	l.Transport.Release(msg.Payload)
	l.mu.Lock()
	l.lent[&b[:1][0]] = true
	l.mu.Unlock()
	msg.Payload = b
	return msg, nil
}

func (l *lender) Release(b []byte) {
	if b == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cap(b) == 0 || !l.lent[&b[:1][0]] {
		l.bad = append(l.bad, fmt.Sprintf("released a %d-byte buffer that is not lent", len(b)))
		return
	}
	l.lent[&b[:1][0]] = false
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
}

// audit reports the breaches seen and every payload still lent.
func (l *lender) audit() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.bad
	held := 0
	for _, on := range l.lent {
		if on {
			held++
		}
	}
	if held > 0 {
		out = append(out, fmt.Sprintf("%d of %d lent payloads never released", held, len(l.lent)))
	}
	return out
}

// trainLent is Train's strict failure-aware path (trainFault without
// joins) with every rank's transport audited: each member receives
// through a lender over cfg's chaos over the mesh.
func trainLent(t *testing.T, c Config) *Result {
	t.Helper()
	cfg := c.withDefaults()
	p := cfg.Workers
	spi := collective.MakeBuckets(cfg.Model(cfg.Seed).NumParams(), cfg.strategy().BucketBytes).Count()
	clCfg := cfg.Fault.Cluster
	clCfg.Verify = guard.Verify
	if spi > 1 {
		clCfg.SendDepth = 2*spi + 2
	}
	rt := cluster.New(p, clCfg)
	h := chaos.NewHarness(p, *cfg.Fault.Chaos)
	mesh := comm.NewMesh(p)
	lenders := make([]*lender, p)
	members := make([]*cluster.Member, p)
	for r := range members {
		lenders[r] = newLender(h.Wrap(mesh.Endpoint(r)))
		members[r] = rt.Join(lenders[r])
	}
	results, errs := make([]*Result, p), make([]error, p)
	var wg sync.WaitGroup
	for r := range members {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = runRank(cfg, r, p, 0, nil, func(w *worker) link {
				return &clusterLink{newMesh(w, members[r], rt, spi)}
			})
		}(r)
	}
	wg.Wait()
	for _, m := range members {
		m.Close()
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, l := range lenders {
		for _, e := range l.audit() {
			t.Errorf("rank %d: %s", r, e)
		}
	}
	if s := h.Stats(); s.Drops == 0 || s.Dups == 0 || s.Corruptions == 0 {
		t.Errorf("chaos injected too little to show anything: %+v", s)
	}
	return cfg.finish(results[0])
}

// TestLentPayloadsNeverReadAfterRelease trains a guarded P = 3 strict run,
// monolithic and in four buckets, under chaos drops, duplicates and bit
// flips, every received payload lent by an auditor that poisons what is
// released. The faults are repaired without touching the arithmetic, so
// the run must end on the same parameters, bit for bit, as the same run
// over the plain mesh: a payload decoded after its release would differ
// (or fail its frame check), and one released twice, never lent, or never
// released fails the audit.
func TestLentPayloadsNeverReadAfterRelease(t *testing.T) {
	for _, buckets := range []int{1, 4} {
		t.Run(fmt.Sprintf("B=%d", buckets), func(t *testing.T) {
			cfg := blobCfg(93)
			cfg.Workers = 3
			cfg.Epochs = 2
			cfg.NewCompressor = func() compress.Compressor { return feedback.New(compress.NewFFT(0.85)) }
			cfg.Guard = fullGuard()
			if buckets > 1 {
				cfg.Collective = &collective.Config{BucketBytes: fourBuckets(cfg)}
			}
			cfg.Fault = &FaultConfig{
				Cluster: faultClusterCfg(),
				Chaos:   &chaos.Config{Seed: 93, Drop: 0.05, Dup: 0.1, Corrupt: 0.05},
			}
			want, err := Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := trainLent(t, cfg)
			if len(got.Final.Params) != len(want.Final.Params) {
				t.Fatalf("%d parameters, want %d", len(got.Final.Params), len(want.Final.Params))
			}
			for i, v := range got.Final.Params {
				if math.Float32bits(v) != math.Float32bits(want.Final.Params[i]) {
					t.Fatalf("parameter %d is %g over the auditor, %g over the plain mesh", i, v, want.Final.Params[i])
				}
			}
		})
	}
}

// TestFaultPathAllocs is the allocation gate over the failure-aware path:
// a guarded P = 2 FFT run on the mesh, once warm, allocates less than a
// quarter of an object per iteration. A mesh send copies into a buffer the
// receiving member released earlier, so no exchanged message and no
// parameter sync becomes garbage; when every send copied into a fresh
// buffer the same run allocated about two objects per iteration. Two run
// lengths cancel the setup out of the count.
func TestFaultPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	run := func(epochs int) (mallocs uint64, iters int) {
		cfg := blobCfg(91)
		cfg.Workers = 2
		cfg.Epochs = epochs
		cfg.Test = nil // no per-epoch evaluation
		cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.85) }
		cfg.Guard = fullGuard()
		cfg.Fault = &FaultConfig{Cluster: faultClusterCfg()}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		res, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before, res.Iterations
	}
	m1, n1 := run(2)
	m2, n2 := run(22)
	per := (float64(m2) - float64(m1)) / float64(n2-n1)
	t.Logf("%d allocations over %d iterations, %d over %d: %.3f per warm iteration", m1, n1, m2, n2, per)
	if per >= 0.25 {
		t.Errorf("a warm fault-path iteration allocates %.3f objects, want < 0.25", per)
	}
}

// TestBankedFoldAllocatesNoVector: folding a damped stale contribution
// whose withheld mass is banked decodes the message densely, into the
// worker's own buffer. So a warm fold allocates no bucket-size vector,
// even with two collections before it, which would empty any pool.
func TestBankedFoldAllocatesNoVector(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := blobCfg(94)
	cfg.Workers = 2
	cfg.Model = func(s int64) *nn.Network { return models.MLP(16, 256, 4, s) }
	cfg.NewCompressor = func() compress.Compressor { return feedback.New(compress.NewFFT(0.85)) }
	cfg.Collective = &collective.Config{BucketBytes: fourBuckets(cfg)}
	w, err := newWorker(cfg.withDefaults(), 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(94))
	for i := range w.grad {
		w.grad[i] = float32(rng.NormFloat64())
	}
	lo, hi := w.bk.Range(1)
	msg, err := compress.NewFFT(0.85).AppendCompress(nil, w.grad[lo:hi])
	if err != nil {
		t.Fatal(err)
	}
	g := gathered{msgs: [][]byte{msg, msg}, wt: []float32{1, 0.9}, bank: 2}
	var ms runtime.MemStats
	var bytes uint64
	for i := 0; i <= 10; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, _, err := w.average(w.comps[1], 1, &g); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if i > 0 { // the first fold sizes the buffers
			bytes += ms.TotalAlloc - before
		}
	}
	if vec := uint64(4 * (hi - lo)); bytes/10 >= vec/2 {
		t.Errorf("a banked stale fold allocates %d bytes, a %d-byte bucket vector's worth", bytes/10, vec)
	}
}
