package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"fftgrad/internal/telemetry"
)

// rec builds a healthy iteration record for rank-style synthesis: the
// exchange ends exchEnd on the rank's local clock, stages fill the rest.
func rec(iter, start, exchEnd int64, compute, exchange int64) IterRecord {
	return IterRecord{
		Iter:       iter,
		StartNs:    start,
		ExchEndNs:  exchEnd,
		EndNs:      exchEnd + 2000,
		ComputeNs:  compute,
		CompressNs: 500,
		ExchangeNs: exchange,
		UpdateNs:   1000,
		BlamePeer:  -1,
	}
}

// TestCommitZeroAlloc is the obs record-path gate: steady-state Commit —
// with telemetry histograms instrumented and the anomaly engine past
// warm-up — must not allocate.
func TestCommitZeroAlloc(t *testing.T) {
	p := New(2, 256)
	p.Instrument(telemetry.NewRegistry())
	c := p.Rank(0)
	iter := int64(0)
	// Warm the anomaly engine into steady state first.
	for ; iter < 64; iter++ {
		c.Commit(rec(iter, iter*10_000, iter*10_000+7000, 5000, 2000))
	}
	allocs := testing.AllocsPerRun(200, func() {
		c.Commit(rec(iter, iter*10_000, iter*10_000+7000, 5000, 2000))
		iter++
	})
	if allocs != 0 {
		t.Fatalf("Commit allocates %v/op, want 0", allocs)
	}
}

// TestAnomalyCellsFillWholeCacheLines: the per-rank anomaly cells sit
// side by side in one slice, each written by its own rank's goroutine,
// so a cell must span whole 64-byte lines or neighbours share one.
func TestAnomalyCellsFillWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(anomalyState{}); n%64 != 0 {
		t.Fatalf("anomalyState is %d bytes, not a multiple of 64", n)
	}
}

// TestCommitNilSafe: nil profiler and nil ctx record nothing and never
// panic.
func TestCommitNilSafe(t *testing.T) {
	var p *Profiler
	c := p.Rank(0)
	c.Commit(rec(0, 0, 100, 50, 20))
	if c.NowNs() != 0 {
		t.Error("nil ctx NowNs must be 0")
	}
	if got := p.Summary(true); got.Ranks != 0 {
		t.Errorf("nil profiler summary: %+v", got)
	}
	if p.Offsets() != nil || p.Records(0) != nil || p.Profiles(true) != nil {
		t.Error("nil profiler analysis must return nil")
	}
	p.Top(nil, nil) // must return immediately
	if q := New(1, 4).Rank(5); q != nil {
		t.Error("out-of-range rank must be nil")
	}
}

// TestOffsetsUnderSkew models the netsim case: three ranks whose clocks
// disagree by fixed offsets, with per-iteration jitter on the
// barrier-anchored exchange end. The median estimator must recover the
// offsets to within the jitter bound.
func TestOffsetsUnderSkew(t *testing.T) {
	p := New(3, 256)
	skew := []int64{0, 250_000, -700_000} // ns each rank's clock runs ahead
	// Deterministic jitter in [-5µs, +5µs): a splitmix-style hash.
	jitter := func(rank int, iter int64) int64 {
		x := uint64(rank+1)*0x9E3779B97F4A7C15 + uint64(iter)*0xBF58476D1CE4E5B9
		x ^= x >> 31
		return int64(x%10_000) - 5_000
	}
	for iter := int64(0); iter < 100; iter++ {
		trueExchEnd := iter*1_000_000 + 800_000 // shared wall moment
		for rank := 0; rank < 3; rank++ {
			local := trueExchEnd + skew[rank] + jitter(rank, iter)
			p.Rank(rank).Commit(rec(iter, local-800_000, local, 500_000, 200_000))
		}
	}
	offsets := p.Offsets()
	if len(offsets) != 3 {
		t.Fatalf("offsets: %v", offsets)
	}
	for rank, want := range skew {
		got := offsets[rank]
		if d := got - want; d > 5_000 || d < -5_000 {
			t.Errorf("rank %d offset = %d, want %d ± 5000", rank, got, want)
		}
	}
}

// TestCriticalPathBlame synthesizes a BSP iteration where rank 2 arrives
// late at the barrier: every other rank's exchange stretches while rank
// 2's own exchange is short. The profile must name rank 2 the critical
// rank and blame the others' blocked time on it.
func TestCriticalPathBlame(t *testing.T) {
	p := New(4, 64)
	for iter := int64(0); iter < 8; iter++ {
		base := iter * 100_000
		for rank := 0; rank < 4; rank++ {
			r := IterRecord{
				Iter: iter, StartNs: base, BlamePeer: -1,
				ComputeNs: 10_000, CompressNs: 2_000, UpdateNs: 1_000,
			}
			// Barrier semantics: every rank leaves the exchange at the same
			// wall moment; what differs is when each *entered* it.
			r.ExchEndNs = base + 47_000
			if rank == 2 {
				// The straggler computes long and exchanges fast: it never
				// waits — everyone waits for it.
				r.ComputeNs = 40_000
				r.ExchangeNs = 5_000
			} else {
				r.ExchangeNs = 33_000 // blocked at the barrier
			}
			r.EndNs = r.ExchEndNs + 2_000
			p.Rank(rank).Commit(r)
		}
	}
	s := p.Summary(true)
	if s.Iterations != 8 {
		t.Fatalf("swept %d iterations, want 8", s.Iterations)
	}
	var blamed2, total int64
	for _, e := range s.Blame {
		total += e.BlamedNs
		if e.Rank == 2 {
			blamed2 = e.BlamedNs
		}
	}
	if total == 0 || blamed2 != total {
		t.Errorf("rank 2 should hold all blame: blamed2=%d total=%d (%+v)", blamed2, total, s.Blame)
	}
	// Each non-straggler is blocked 33000-5000 = 28000ns per iteration.
	if want := int64(8 * 3 * 28_000); total != want {
		t.Errorf("total blocked %d, want %d", total, want)
	}
	profs := p.Profiles(true)
	if len(profs) == 0 {
		t.Fatal("no profiles")
	}
	last := profs[len(profs)-1]
	if last.CriticalRank != 2 {
		t.Errorf("critical rank %d, want 2", last.CriticalRank)
	}
	if last.CommProperNs != 5_000 {
		t.Errorf("comm proper %d, want 5000", last.CommProperNs)
	}
}

// TestFaultPathBlame: records carrying the cluster layer's explicit
// SlowestPeer/WaitNs attribution must outrank the barrier heuristic.
func TestFaultPathBlame(t *testing.T) {
	p := New(3, 64)
	reg := telemetry.NewRegistry()
	p.Instrument(reg)
	for iter := int64(0); iter < 4; iter++ {
		base := iter * 100_000
		for rank := 0; rank < 3; rank++ {
			r := rec(iter, base, base+50_000, 10_000, 30_000)
			if rank != 1 {
				r.BlamePeer = 1 // both peers waited on rank 1's delivery
				r.BlameWaitNs = 20_000
			}
			p.Rank(rank).Commit(r)
		}
	}
	s := p.Summary(true)
	if want := int64(4 * 2 * 20_000); s.TotalBlockedNs != want {
		t.Errorf("total blocked %d, want %d", s.TotalBlockedNs, want)
	}
	if got := s.Blame[1].BlamedNs; got != s.TotalBlockedNs {
		t.Errorf("rank 1 blamed %d of %d", got, s.TotalBlockedNs)
	}
	// The rolling percentile histograms must have been fed exactly once
	// per blamed wait (cursor-guarded: a second Summary adds nothing).
	_ = p.Summary(true)
	snap := reg.Snapshot()
	if got := snap[`fftgrad_obs_blame_seconds{rank="1"}_count`]; got != 8 {
		t.Errorf("blame histogram count %v, want 8", got)
	}
	if q := p.blameQuantile(1, 0.5); q <= 0 {
		t.Errorf("p50 blame quantile %v, want > 0", q)
	}
}

// TestSweepCursorMonotonic: sweeping mid-run must not fold iterations a
// slow rank has not reported yet, and must fold them once it has.
func TestSweepCursorMonotonic(t *testing.T) {
	p := New(2, 64)
	for iter := int64(0); iter < 10; iter++ {
		p.Rank(0).Commit(rec(iter, iter*1000, iter*1000+500, 300, 100))
	}
	// Rank 1 lags: only 5 iterations in.
	for iter := int64(0); iter < 5; iter++ {
		p.Rank(1).Commit(rec(iter, iter*1000, iter*1000+500, 300, 100))
	}
	if s := p.Summary(false); s.Iterations != 5 {
		t.Errorf("non-final sweep folded %d iterations, want 5 (common frontier)", s.Iterations)
	}
	for iter := int64(5); iter < 10; iter++ {
		p.Rank(1).Commit(rec(iter, iter*1000, iter*1000+500, 300, 100))
	}
	if s := p.Summary(false); s.Iterations != 10 {
		t.Errorf("after catch-up folded %d iterations, want 10", s.Iterations)
	}
}

// TestAnomalyCaptureFires: a latency cliff after warm-up must breach the
// EWMA z-score and produce a cross-linked capture record.
func TestAnomalyCaptureFires(t *testing.T) {
	p := New(1, 256)
	dir := t.TempDir()
	stop := p.EnableCapture(CaptureConfig{Dir: dir})
	defer stop()
	p.capt.window = 10 * time.Millisecond // read only after the breach below is sent
	c := p.Rank(0)
	var iter int64
	for ; iter < 50; iter++ {
		r := rec(iter, iter*10_000, iter*10_000+7000, 5000, 2000)
		// Mild deterministic jitter so the EWMA variance is non-zero.
		r.EndNs += iter % 3 * 10
		c.Commit(r)
	}
	// The cliff: a 100x latency spike.
	spike := rec(iter, iter*10_000, iter*10_000+700_000, 5000, 690_000)
	spike.EndNs = spike.StartNs + 900_000
	c.Commit(spike)
	if p.breaches.Load() == 0 {
		t.Fatal("latency cliff did not breach the anomaly engine")
	}
	// The capture worker is async; wait for it.
	deadline := time.After(5 * time.Second)
	for len(p.Captures()) == 0 {
		select {
		case <-deadline:
			t.Fatal("no capture record within 5s")
		case <-time.After(10 * time.Millisecond):
		}
	}
	cap0 := p.Captures()[0]
	if cap0.Iter != iter {
		t.Errorf("capture iter %d, want %d", cap0.Iter, iter)
	}
	if cap0.CrossLink == "" {
		t.Error("capture missing cross-link file")
	}
	var link map[string]any
	data := mustRead(t, cap0.CrossLink)
	if err := json.Unmarshal(data, &link); err != nil {
		t.Fatalf("cross-link not JSON: %v", err)
	}
	if link["iter"] != float64(iter) || link["version"] == "" {
		t.Errorf("cross-link content: %v", link)
	}
}

// TestProfileAndStatusHandlers: the HTTP surfaces serve valid JSON with
// the expected shape.
func TestProfileAndStatusHandlers(t *testing.T) {
	p := New(2, 64)
	p.Instrument(telemetry.NewRegistry())
	for iter := int64(0); iter < 6; iter++ {
		for rank := 0; rank < 2; rank++ {
			r := rec(iter, iter*1000, iter*1000+500, 300, 100+int64(rank)*50)
			p.Rank(rank).Commit(r)
		}
	}
	rr := httptest.NewRecorder()
	p.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/profile", nil))
	var prof Profile
	if err := json.Unmarshal(rr.Body.Bytes(), &prof); err != nil {
		t.Fatalf("profile not JSON: %v", err)
	}
	if prof.Summary.Ranks != 2 || len(prof.Blame) != 2 || prof.Build.Go == "" {
		t.Errorf("profile shape: %+v", prof.Summary)
	}
	rr = httptest.NewRecorder()
	p.StatusHandler(func() uint64 { return 7 }).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/status", nil))
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("status not JSON: %v", err)
	}
	if st.Ranks != 2 || st.TraceDropped != 7 || st.Version == "" {
		t.Errorf("status shape: %+v", st)
	}
}

// TestRenderTop: one frame renders every rank and the header.
func TestRenderTop(t *testing.T) {
	p := New(2, 64)
	for iter := int64(0); iter < 4; iter++ {
		for rank := 0; rank < 2; rank++ {
			p.Rank(rank).Commit(rec(iter, iter*1000, iter*1000+500, 300, 100+int64(rank)*200))
		}
	}
	var buf bytes.Buffer
	lines := p.RenderTop(&buf)
	out := buf.String()
	if lines < 4 || !strings.Contains(out, "rank") || !strings.Contains(out, "critical path") {
		t.Errorf("top frame (%d lines):\n%s", lines, out)
	}
}

// TestConcurrentCommitAndAnalyze: ranks committing while analysis runs —
// exercised under -race by the obs gate.
func TestConcurrentCommitAndAnalyze(t *testing.T) {
	p := New(4, 512)
	p.Instrument(telemetry.NewRegistry())
	var wg sync.WaitGroup
	for rank := 0; rank < 4; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := p.Rank(rank)
			for iter := int64(0); iter < 500; iter++ {
				c.Commit(rec(iter, iter*1000, iter*1000+500, 300, 100))
			}
		}(rank)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = p.Summary(false)
				_ = p.Offsets()
			}
		}
	}()
	wg.Wait()
	close(done)
	if s := p.Summary(true); s.Iterations != 500 {
		t.Errorf("final sweep folded %d, want 500", s.Iterations)
	}
}

// TestLateRankFoldsEachIterationOnce is TestConcurrentCommitAndAnalyze's
// interleaving made deterministic: a rank whose first commit comes after
// a sweep must not move the sweep cursor back over folded iterations.
func TestLateRankFoldsEachIterationOnce(t *testing.T) {
	p := New(2, 64)
	for iter := int64(0); iter < 10; iter++ {
		p.Rank(0).Commit(rec(iter, iter*1000, iter*1000+500, 300, 100))
	}
	_ = p.Summary(false)
	for iter := int64(0); iter < 10; iter++ {
		p.Rank(1).Commit(rec(iter, iter*1000, iter*1000+500, 300, 100))
		_ = p.Summary(false)
	}
	if s := p.Summary(true); s.Iterations != 10 {
		t.Errorf("folded %d iterations, want 10", s.Iterations)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}
