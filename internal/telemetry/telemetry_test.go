package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterShardedSum(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "test")
	for rank := 0; rank < 40; rank++ {
		c.Add(rank, rank+1)
	}
	want := uint64(40 * 41 / 2)
	if got := c.Total(); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	c.Add(0, -5) // negative deltas ignored
	if got := c.Total(); got != want {
		t.Fatalf("Total after negative Add = %d, want %d", got, want)
	}
}

func TestGetOrCreateSharesInstances(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("shared_total", "h")
	b := reg.Counter("shared_total", "h")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	g1 := reg.Gauge("g", "h")
	g2 := reg.Gauge("g", "h")
	if g1 != g2 {
		t.Fatal("same name returned distinct gauges")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type re-registration did not panic")
		}
	}()
	reg.Gauge("shared_total", "h")
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "h", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5, 0.5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 6.055; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrency hammers every metric type from many goroutines;
// it is the -race CI gate for the lock-free update paths.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	st := NewStageTimer()
	st.Register(reg)
	c := reg.Counter("conc_total", "h")
	g := reg.Gauge("conc_gauge", "h")
	h := reg.Histogram("conc_hist", "h", []float64{1, 10, 100})

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(rank, 1)
				g.Set(float64(i))
				h.Observe(float64(i % 200))
				st.ObserveStage(Stage(i%int(NumStages)), 1024, 1e-6)
				if i%500 == 0 { // concurrent exposition against updates
					_ = reg.WritePrometheus(io.Discard)
					_ = reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Total(); got != workers*iters {
		t.Fatalf("counter lost updates: %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram lost updates: %d, want %d", got, workers*iters)
	}
	var total int64
	for s := Stage(0); s < NumStages; s++ {
		total += st.Samples(s)
	}
	if total != workers*iters {
		t.Fatalf("stage timer lost updates: %d, want %d", total, workers*iters)
	}
}

func TestStageTimerRates(t *testing.T) {
	st := NewStageTimer()
	if st.Rate(StageConvert) != 0 {
		t.Fatal("unobserved stage should report 0 rate")
	}
	st.ObserveStage(StageConvert, 1000, 1e-3) // 1 MB/s
	if got := st.Rate(StageConvert); math.Abs(got-1e6) > 1 {
		t.Fatalf("first observation should seed the EWMA: got %g", got)
	}
	st.ObserveStage(StageConvert, 2000, 1e-3) // 2 MB/s
	want := 1e6 + ewmaAlpha*(2e6-1e6)
	if got := st.Rate(StageConvert); math.Abs(got-want) > 1 {
		t.Fatalf("EWMA = %g, want %g", got, want)
	}
	// Degenerate inputs are ignored.
	st.ObserveStage(StageConvert, 0, 1)
	st.ObserveStage(StageConvert, 10, 0)
	st.ObserveStage(NumStages, 10, 1)
	if got := st.Samples(StageConvert); got != 2 {
		t.Fatalf("Samples = %d, want 2", got)
	}
	// A nil timer is a no-op everywhere.
	var nilT *StageTimer
	nilT.ObserveStage(StageConvert, 10, 1)
	nilT.ObserveSince(StageConvert, 10, time.Now())
	if nilT.Rate(StageConvert) != 0 || nilT.Samples(StageComm) != 0 {
		t.Fatal("nil timer should report zeros")
	}
}

func TestStageNames(t *testing.T) {
	want := map[Stage]string{
		StageConvert: "tm", StageTransform: "tf", StagePack: "tp",
		StageSelect: "ts", StageComm: "comm",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
}

func TestPrometheusAndJSONExposition(t *testing.T) {
	reg := NewRegistry()
	st := NewStageTimer()
	st.ObserveStage(StageConvert, 4096, 1e-3)
	st.Register(reg)
	reg.Counter(`comm_tx_bytes_total{transport="inproc"}`, "bytes sent").Add(0, 123)
	reg.Gauge("theta", "drop ratio").Set(0.85)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE comm_tx_bytes_total counter",
		`comm_tx_bytes_total{transport="inproc"} 123`,
		"theta 0.85",
		`fftgrad_stage_throughput_bytes_per_second{stage="tm"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per base name even with several label sets.
	if got := strings.Count(out, "# TYPE fftgrad_stage_throughput_bytes_per_second"); got != 1 {
		t.Errorf("expected exactly one TYPE header for the stage gauge, got %d", got)
	}

	snap := reg.Snapshot()
	if snap[`comm_tx_bytes_total{transport="inproc"}`] != 123 {
		t.Errorf("snapshot missing counter: %v", snap)
	}
	if v := snap[`fftgrad_stage_throughput_bytes_per_second{stage="tm"}`]; math.Abs(v-4.096e6) > 1 {
		t.Errorf("snapshot stage gauge = %g, want ~4.096e6", v)
	}
}

func TestHTTPEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", "h").Add(0, 7)
	addr, shutdown, err := ServeHandler("127.0.0.1:0", reg.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "hits_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"hits_total": 7`) {
		t.Errorf("/metrics.json missing counter:\n%s", body)
	}
}

// TestProbes pins the probe semantics: /healthz answers 200 "ok" for the
// process's lifetime, /readyz answers 200 "ok" until ready turns false
// and 503 "draining" after.
func TestProbes(t *testing.T) {
	var draining atomic.Bool
	mux := http.NewServeMux()
	Probes(mux, func() bool { return !draining.Load() })
	ts := httptest.NewServer(mux)
	defer ts.Close()

	check := func(path string, code int, body string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != code || string(got) != body {
			t.Errorf("GET %s = %d %q, want %d %q", path, resp.StatusCode, got, code, body)
		}
	}
	check("/healthz", http.StatusOK, "ok\n")
	check("/readyz", http.StatusOK, "ok\n")
	draining.Store(true)
	check("/healthz", http.StatusOK, "ok\n")
	check("/readyz", http.StatusServiceUnavailable, "draining\n")
}
