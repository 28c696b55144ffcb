package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/models"
	"fftgrad/internal/nn"
)

// TestMain lets the watchdog test re-run this binary as a child that
// never reports.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_STALL") != "" {
		select {}
	}
	os.Exit(m.Run())
}

// tiny is a workload small enough for the self-test: MLP(24,48,8), a
// 3944-float gradient.
func tiny(name string) workload {
	return workload{
		name:  name,
		model: func(seed int64) *nn.Network { return models.MLP(24, 48, 8, seed) },
		data:  func(seed int64) *data.Dataset { return data.GaussianBlobs(512, 8, 24, 1.0, seed) },
		batch: 4, lr: 0.01, codec: fftCodec, target: 1e9,
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if xs[0] != 4 {
		t.Error("percentile sorted its argument")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestRollingCross(t *testing.T) {
	xs := []float64{9, 7, 5, 3, 1, 1}
	if got := rollingCross(xs, 2, 4); got != 4 { // mean(5,3) = 4 after four samples
		t.Errorf("rollingCross = %d, want 4", got)
	}
	if got := rollingCross(xs, 2, 0.5); got != 0 {
		t.Errorf("never reached, got %d", got)
	}
	if got := rollingCross(xs, 10, 100); got != 0 {
		t.Errorf("window longer than the series, got %d", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a: union is 10..60
		{Name: "a.child", Parent: 1, Start: 15, End: 20},
		{Name: "late", Parent: 0, Start: 90, End: 120}, // clipped to the parent
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	per := layerPerIter([]span{{Name: "x", Iter: 2, Start: 0, End: 2e6}, {Name: "x", Iter: 2, Start: 0, End: 1e6}, {Name: "y", Iter: 3}},
		[]int64{2e6, 1e6, 5e6}, 2, 4, "x")
	if per[0] != 3 || per[1] != 0 {
		t.Errorf("layerPerIter = %v", per)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	b, err := os.ReadFile("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestBenchmarkJSON holds BENCHMARK.json to the contract it is read by
// and to the workloads this program has.
func TestBenchmarkJSON(t *testing.T) {
	s := loadTestSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(s.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range s.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q here and %q in BENCHMARK.json", i, workloads[i].name, w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range s.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s should have the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(s.PerLayer))
	}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range s.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

func sameNames(t *testing.T, pass string, listed []metricSpec, got map[string]metric, exact bool) {
	t.Helper()
	want := map[string]string{}
	for _, m := range listed {
		want[m.Name] = m.Unit
		if g, ok := got[m.Name]; !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, the run did not measure it", pass, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: %s is measured in %q, listed in %q", pass, m.Name, g.Unit, m.Unit)
		}
	}
	if exact {
		var extra []string
		for n := range got {
			if _, ok := want[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s: measured but not listed in BENCHMARK.json: %v", pass, extra)
		}
	}
}

// TestMetricNames runs both passes on the tiny workload and compares the
// metric names and units they emit with BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	s := loadTestSpec(t)
	w := tiny("tiny")

	rep := runE2E(w, 1, 0.05, budgetBlocks, time.Now(), false)
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	o := deriveE2E(w, rep, []float64{rep.SetupS}, budgetIters)
	sameNames(t, "end-to-end", s.EndToEnd, o.Metrics, false)
	for _, m := range recordedOnly {
		if _, ok := o.Metrics[m.Name]; !ok {
			t.Errorf("record lacks %s", m.Name)
		}
	}
	if o.Failed != 0 || o.Attempted < budgetIters {
		t.Errorf("attempted %d, failed %d", o.Attempted, o.Failed)
	}

	tr := runTraced(w, 1, tracedPlan{blocks: warmBlocks + quietBlocks + 1, captureAt: 5, kernelOn: w, overheadOn: w})
	if tr.Err != "" {
		t.Fatal(tr.Err)
	}
	sameNames(t, "per-layer", s.PerLayer, tr.Metrics, true)
	for _, p := range tr.Problems {
		// Timing-derived checks mean nothing at this size; the loss and
		// byte checks do.
		if strings.Contains(p, "loss") || strings.Contains(p, "bytes") {
			t.Error(p)
		}
	}
}

// TestReplayBitIdentity checks the replay against dist.Train on every
// exchange path the workloads use. It is the same arithmetic, so the
// block losses are equal to the last bit.
func TestReplayBitIdentity(t *testing.T) {
	variants := map[string]func(*workload){
		"monolithic": func(*workload) {},
		"fp32":       func(w *workload) { w.codec = fp32Codec },
		"bucketed":   func(w *workload) { w.bucket = 4 << 10 },
		"fault":      func(w *workload) { w.fault, w.guarded = true, true },
	}
	const blocks = warmBlocks + 3
	for name, mod := range variants {
		t.Run(name, func(t *testing.T) {
			w := tiny(name)
			mod(&w)
			train := w.data(7)
			cfg := w.config(7, train)
			cfg.Epochs = blocks
			ref, err := dist.Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := runReplay(w, 7, blocks, train, -1)
			if err != nil {
				t.Fatal(err)
			}
			if len(rp.BlockLoss) != blocks {
				t.Fatalf("%d blocks replayed", len(rp.BlockLoss))
			}
			for b, e := range ref.Epochs {
				if rp.BlockLoss[b] != e.TrainLoss {
					t.Errorf("block %d: replay %v, dist.Train %v", b, rp.BlockLoss[b], e.TrainLoss)
				}
			}
			if rp.MsgBytes != ref.AvgMsgBytes {
				t.Errorf("bytes per iteration: replay %v, dist.Train %v", rp.MsgBytes, ref.AvgMsgBytes)
			}
		})
	}
}

// TestWatchdog stalls a child on purpose: the watchdog must kill it and
// every planned iteration must count as failed.
func TestWatchdog(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var rep e2eReport
	t0 := time.Now()
	t.Setenv("BENCH_TEST_STALL", "1") // the child inherits it
	err = spawnChild(context.Background(), exe, nil, 300*time.Millisecond, &rep)
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("stalled child: err = %v", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("watchdog took %v", d)
	}
	o := deriveE2E(tiny("tiny"), &e2eReport{Err: err.Error()}, nil, budgetIters)
	if fs := o.Metrics["failed_share"].Value; fs != 1 || o.Failed != budgetIters || len(o.Problems) == 0 {
		t.Errorf("failed_share = %v, failed = %d, problems = %v", fs, o.Failed, o.Problems)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "iter_ms_p50", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", []float64{10, 10.1, 9.9}, []float64{10, 10.2, 9.8}, "ok"},
		{"slower", []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "worse"},
		{"noisy", []float64{10, 14, 8}, []float64{10, 13, 9}, "unresolved"},
		{"noisy but every run faster", []float64{10, 14, 8}, []float64{5, 7, 4}, "ok"},
	} {
		if got := verdict(lower, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	higher := metricSpec{Name: "samples_per_s", Better: "higher", Bound: 0.10}
	if got := verdict(higher, []float64{100, 101, 99}, []float64{80, 81, 79}); got != "worse" {
		t.Errorf("throughput drop: verdict = %s", got)
	}
}
