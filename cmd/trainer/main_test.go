package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/guard"
	"fftgrad/internal/models"
	"fftgrad/internal/netsim"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/serve"
	itrace "fftgrad/internal/trace"
)

// The flag sets of the CLI gates (make chaos, make guard and the trace,
// observability, collective and elasticity smokes): rows of
// TestBothSurfacesCompileOneConfig, and what TestSmoke* run.
const (
	chaosArgs   = "-model mlp -epochs 2 -workers 4 -fault-aware -chaos-drop 0.05 -chaos-delay 10ms -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000"
	guardArgs   = "-model mlp -epochs 2 -workers 4 -fault-aware -guard -chaos-corrupt 0.05"
	traceArgs   = "-model mlp -epochs 2 -workers 4 -fault-aware -guard -chaos-drop 0.05 -chaos-corrupt 0.02 -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000"
	obsArgs     = "-model mlp -epochs 2 -workers 4 -fault-aware -chaos-straggle 2 -chaos-straggle-by 15ms"
	hierArgs    = "-model mlp -epochs 2 -workers 4 -fault-aware -collective hier -group-size 2 -bucket-bytes 1024 -chaos-drop 0.05 -chaos-delay 10ms -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000"
	staleArgs   = "-model mlp -epochs 2 -workers 4 -seed 7 -staleness 4 -chaos-drop 0.03 -chaos-delay 5ms"
	elasticArgs = staleArgs + " -elastic-join 20 -chaos-straggle 3 -chaos-straggle-at 300 -chaos-straggle-by 20ms"
)

// compile is what run does with a command line: flags → Spec → Config.
func compile(t *testing.T, args string) (serve.Spec, dist.Config) {
	t.Helper()
	spec, _, err := parseArgs(append([]string{"trainer"}, strings.Fields(args)...), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", args, err)
	}
	return spec, compileSpec(t, spec)
}

func compileSpec(t *testing.T, spec serve.Spec) dist.Config {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// sameJob requires two compiled configs to describe one job: DeepEqual
// on every field, the two constructor fields by what they construct.
func sameJob(t *testing.T, got, want dist.Config) {
	t.Helper()
	params := func(c dist.Config) []float32 {
		net := c.Model(3)
		return net.GetParams(make([]float32, net.NumParams()))
	}
	if g, w := params(got), params(want); !reflect.DeepEqual(g, w) {
		t.Errorf("Model builds different networks (%d vs %d parameters)", len(g), len(w))
	}
	grad := want.Train.X[:1024]
	gc, wc := got.NewCompressor(), want.NewCompressor()
	gm, _ := gc.AppendCompress(nil, grad)
	wm, _ := wc.AppendCompress(nil, grad)
	if gc.Name() != wc.Name() || !bytes.Equal(gm, wm) {
		t.Errorf("NewCompressor builds different codecs: %s (%d bytes) vs %s (%d bytes)", gc.Name(), len(gm), wc.Name(), len(wm))
	}
	got.Model, want.Model, got.NewCompressor, want.NewCompressor = nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("configs differ:\n got %+v\nwant %+v", got, want)
	}
}

// TestBothSurfacesCompileOneConfig: every trainer invocation the README
// and the smoke tests show, parsed to a Spec, must survive the JSON
// surface — marshal, decode — and compile to the same dist.Config, so
// whatever the flags can say a POST /jobs body can say too.
func TestBothSurfacesCompileOneConfig(t *testing.T) {
	for _, args := range []string{
		"", // the default run
		// README.md
		"-method fft -theta 0.85 -workers 8 -epochs 5 -trace",
		"-method topk -theta 0.9 -drop-epoch 3",
		"-collective hier -group-size 4",
		"-bucket-bytes 65536",
		"-metrics-addr :9090",
		"-adapt",
		"-model mlp -workers 4 -epochs 2 -trace-out trace.json",
		"-metrics-addr :9090 -trace-out trace.json -pprof",
		"-model mlp -workers 4 -epochs 4 -profile-out profile.json -trace-out trace.json",
		"-fault-aware -on-failure rescale -on-straggler wait -chaos-drop 0.05 -chaos-delay 10ms -chaos-crash 2",
		"-fault-aware -staleness 4 -elastic-join 20 -chaos-straggle 3 -chaos-straggle-by 20ms",
		"-fault-aware -guard -chaos-corrupt 0.05",
		// the TestSmoke* gates below
		chaosArgs,
		guardArgs,
		traceArgs + " -trace-out trace-smoke.json",
		obsArgs + " -profile-out obs-smoke.json -trace-out obs-smoke-trace.json",
		hierArgs,
		staleArgs,
		elasticArgs + " -trace-out elastic-smoke.json",
		// values whose zero must survive both surfaces
		"-theta 0 -drop-epoch 0 -guard -guard-crc=false -guard-drift-every 0 -chaos-crash 0 -chaos-crash-for 0 -chaos-delay 500us",
	} {
		t.Run(args, func(t *testing.T) {
			spec, fromFlags := compile(t, args)
			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			var decoded serve.Spec
			if err := json.Unmarshal(body, &decoded); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			sameJob(t, compileSpec(t, decoded), fromFlags)
		})
	}
}

// TestCompiledLiterals pins what three descriptions compile to: -guard
// and {"guard":true} to the same guard.Config, and {} to the service's
// two-worker MLP/FFT job.
func TestCompiledLiterals(t *testing.T) {
	fromJSON := func(body string) dist.Config {
		var spec serve.Spec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		spec.FillDefaults()
		return compileSpec(t, spec)
	}
	wantGuard := &guard.Config{CRC: true, Scrub: guard.ScrubClamp, Detect: true, DriftEvery: 50, RollbackAfter: 6}
	if _, cfg := compile(t, "-guard"); !reflect.DeepEqual(cfg.Guard, wantGuard) {
		t.Errorf("-guard: %+v, want %+v", cfg.Guard, wantGuard)
	}
	if cfg := fromJSON(`{"guard":true}`); !reflect.DeepEqual(cfg.Guard, wantGuard) {
		t.Errorf(`{"guard":true}: %+v, want %+v`, cfg.Guard, wantGuard)
	}

	train, test := data.GaussianBlobs(2048+512, 4, 24, 0.8, 0).Split(2048)
	sameJob(t, fromJSON(`{}`), dist.Config{
		Workers:       2,
		Batch:         16,
		Epochs:        2,
		Momentum:      0.9,
		LR:            optim.ConstLR(0.05),
		Model:         func(seed int64) *nn.Network { return models.MLP(24, 48, 4, seed) },
		Train:         train,
		Test:          test,
		NewCompressor: func() compress.Compressor { return compress.NewFFT(0.85) },
		Fabric:        netsim.CometCluster(),
	})
}

// smoke runs the trainer in-process and returns its stdout.
func smoke(t *testing.T, args string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("full training run in -short mode")
	}
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"trainer"}, strings.Fields(args)...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, &stderr, &stdout)
	}
	return stdout.String()
}

// readJSON decodes the file at path into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
}

// TestSmokeOneElementBuckets: -bucket-bytes 4 cuts the gradient into
// one-float buckets, which Spec.Validate accepts; the transform codecs
// must pad them to a 2-point transform like cfft.PaddedLen says instead
// of dying at iteration 0 with "gradient too short".
func TestSmokeOneElementBuckets(t *testing.T) {
	for _, method := range []string{"fft", "dct"} {
		out := smoke(t, "-model mlp -epochs 1 -workers 2 -samples 256 -bucket-bytes 4 -method "+method)
		if !strings.Contains(out, "\ncompression ratio: ") {
			t.Fatalf("-method %s did not run to completion:\n%s", method, out)
		}
	}
}

// TestSmokeChaos: a fault-injected run (5% drop, delays, one crash and
// rejoin) must converge and report its fault accounting.
func TestSmokeChaos(t *testing.T) {
	if out := smoke(t, chaosArgs); !strings.Contains(out, "\nfault runtime: ") {
		t.Fatalf("no fault summary in:\n%s", out)
	}
}

// TestSmokeGuard: a run under seeded single-bit wire corruption must
// converge with the guard's summary line.
func TestSmokeGuard(t *testing.T) {
	if out := smoke(t, guardArgs); !strings.Contains(out, "\nguard: ") {
		t.Fatalf("no guard summary in:\n%s", out)
	}
}

// TestSmokeTrace: a chaos run with the flight recorder armed must write
// a Perfetto-loadable trace_event dump with complete spans on every rank.
func TestSmokeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace-smoke.json")
	smoke(t, traceArgs+" -trace-out "+path)
	var events []struct {
		Ph  string `json:"ph"`
		Tid int    `json:"tid"`
	}
	readJSON(t, path, &events)
	spans := map[int]int{}
	for _, e := range events {
		if e.Ph == "X" {
			spans[e.Tid]++
		}
	}
	for rank := 0; rank < 4; rank++ {
		if spans[rank] == 0 {
			t.Errorf("no complete span on rank %d (of %d events)", rank, len(events))
		}
	}
}

// TestSmokeTraceTable: -trace alone prints the per-iteration table from
// the profiler's rank-0 records (at most ten rows with positive compute
// and codec times) and none of the profiler's own outputs: no profile:
// line, and no anomaly capture written into the working directory.
func TestSmokeTraceTable(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir(wd) }()
	out := smoke(t, "-model mlp -workers 2 -epochs 1 -trace")

	if strings.Contains(out, "\nprofile: ") {
		t.Errorf("-trace alone printed a profile: line:\n%s", out)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "obs-*")); len(files) > 0 {
		t.Errorf("-trace alone wrote anomaly captures: %v", files)
	}
	_, table, ok := strings.Cut(out, "\nper-iteration breakdown (first 10):\n")
	if !ok {
		t.Fatalf("no per-iteration table in:\n%s", out)
	}
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	if got := strings.Join(strings.Fields(lines[0]), " "); got != "iter compute ms codec ms exchange ms msg KB" {
		t.Fatalf("table header %q", lines[0])
	}
	rows := lines[2:]
	if len(rows) == 0 || len(rows) > 10 {
		t.Fatalf("%d table rows:\n%s", len(rows), table)
	}
	for _, row := range rows {
		f := strings.Fields(row)
		if len(f) != 5 {
			t.Fatalf("row %q has %d columns", row, len(f))
		}
		for _, col := range f[1:3] {
			if v, err := strconv.ParseFloat(col, 64); err != nil || v <= 0 {
				t.Errorf("row %q: compute/codec column %q not positive", row, col)
			}
		}
	}
}

// TestSmokeReportsWhatRan: the banner, the theta column and the ratio
// line describe the run that happened — the codec's own drop ratio when
// no schedule sets one, and "-" for a codec without one.
func TestSmokeReportsWhatRan(t *testing.T) {
	const tiny = "-model mlp -epochs 1 -samples 256 "
	for _, tc := range []struct {
		args string
		want []string
	}{
		{tiny + "-workers 2", []string{"with fft (θ=0.85)", "0.03  0.85 "}},
		{tiny + "-workers 2 -method fp32", []string{"0.03  -  "}},
	} {
		out := smoke(t, tc.args)
		for _, w := range append(tc.want, "\ncompression ratio: ") {
			if !strings.Contains(out, w) {
				t.Errorf("%s: no %q in:\n%s", tc.args, w, out)
			}
		}
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%s prints a non-number:\n%s", tc.args, out)
		}
	}
}

// TestSmokeObs: with a permanent 15ms straggler on rank 2 the exported
// blame ledger must name rank 2 and charge it at least half of all
// cross-rank blocked time, and the merged multi-process timeline must
// cover every rank.
func TestSmokeObs(t *testing.T) {
	dir := t.TempDir()
	profile, timeline := filepath.Join(dir, "profile.json"), filepath.Join(dir, "trace.json")
	out := smoke(t, obsArgs+" -profile-out "+profile+" -trace-out "+timeline)
	if !strings.Contains(out, "\nprofile: top blamed rank 2 ") {
		t.Errorf("headline does not blame rank 2:\n%s", out)
	}
	var doc struct {
		Build   struct{ Version string }
		Summary struct{ Iterations int }
		Blame   []struct {
			Rank       int
			BlamedFrac float64 `json:"blamed_frac"`
		}
	}
	readJSON(t, profile, &doc)
	if doc.Summary.Iterations == 0 || doc.Build.Version == "" {
		t.Errorf("profile without iterations or build stamp: %+v", doc)
	}
	for _, b := range doc.Blame {
		if b.Rank == 2 && b.BlamedFrac < 0.5 {
			t.Errorf("straggled rank 2 only blamed for %.0f%% of blocked time", 100*b.BlamedFrac)
		}
	}
	var events []struct {
		Ph  string
		Pid int
	}
	readJSON(t, mergedPath(timeline), &events)
	pids := map[int]bool{}
	for _, e := range events {
		pids[e.Pid] = pids[e.Pid] || e.Ph == "X"
	}
	for pid := 1; pid <= 4; pid++ {
		if !pids[pid] {
			t.Errorf("merged timeline has no complete span of process %d", pid)
		}
	}
}

// TestSmokeHierBucketedChaos: the 2-group hierarchical bucketed pipeline
// with one rank crashing between bucket rounds, through the CLI flags.
func TestSmokeHierBucketedChaos(t *testing.T) {
	if out := smoke(t, hierArgs); !strings.Contains(out, "\nfault runtime: ") {
		t.Fatalf("no fault summary in:\n%s", out)
	}
}

// TestSmokeElastic: under -staleness 4, a mid-run elastic join plus a
// permanent straggler (20ms per send: far above the per-round grace, well
// below the suspicion deadline, never recovering) must dump the timeline
// on the quorum-grow join and finish within 1.5x of the straggler-free
// run (+1s for the extra rank's startup) — bounded staleness folds the
// straggler's cached gradients instead of waiting, so a permanently slow
// rank no longer sets the fleet's pace.
func TestSmokeElastic(t *testing.T) {
	t0 := time.Now()
	smoke(t, staleArgs)
	base := time.Since(t0)
	timeline := filepath.Join(t.TempDir(), "trace.json")
	t0 = time.Now()
	smoke(t, elasticArgs+" -trace-out "+timeline)
	strag := time.Since(t0)
	// The dump carries its own cause as a flight_trigger instant.
	var dump []struct {
		Name string
		Args struct{ Arg int64 }
	}
	readJSON(t, flightPath(timeline), &dump)
	grew := false
	for _, e := range dump {
		grew = grew || e.Name == "flight_trigger" && e.Args.Arg == int64(itrace.ReasonViewGrow)
	}
	if !grew {
		t.Errorf("no view_grow trigger among the flight dump's %d events", len(dump))
	}
	if strag > base*3/2+time.Second {
		t.Errorf("permanent straggler set the pace: %v vs %v straggler-free", strag, base)
	}
}

// syncBuffer is a stdout the test may read while run still writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSmokeServe: `trainer -serve` runs two concurrent jobs with
// different compressors over the HTTP API, both complete with their
// metrics distinguishable per job, and a SIGTERM drains the service.
func TestSmokeServe(t *testing.T) {
	if testing.Short() {
		t.Skip("full training runs in -short mode")
	}
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"trainer", "-serve", "-metrics-addr", "127.0.0.1:0", "-pool", "4", "-spool", t.TempDir()}, &stdout, &stderr)
	}()
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(60 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s\nstdout: %s\nstderr: %s", what, &stdout, &stderr)
			}
		}
	}
	var base string
	await("the listen address", func() bool {
		m := regexp.MustCompile(`job service: (http://\S+)/jobs`).FindStringSubmatch(stdout.String())
		if m != nil {
			base = m[1]
		}
		return m != nil
	})
	call := func(method, path, body string) (info struct{ ID, State string }, raw string) {
		t.Helper()
		req, _ := http.NewRequest(method, base+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			t.Fatalf("%s %s: %s: %s", method, path, resp.Status, b)
		}
		_ = json.Unmarshal(b, &info) // the metrics page is not JSON
		return info, string(b)
	}
	a, _ := call("POST", "/jobs", `{"name":"fft","method":"fft","theta":0.85,"workers":2,"epochs":2,"samples":1024}`)
	b, _ := call("POST", "/jobs", `{"name":"topk","method":"topk","theta":0.9,"workers":2,"epochs":2,"samples":1024}`)
	for _, id := range []string{a.ID, b.ID} {
		await("job "+id, func() bool {
			info, _ := call("GET", "/jobs/"+id, "")
			return info.State == "completed"
		})
	}
	_, metrics := call("GET", "/jobs/metrics", "")
	for _, id := range []string{a.ID, b.ID} {
		if !strings.Contains(metrics, `job="`+id+`"`) {
			t.Errorf("no job=%q label on /jobs/metrics", id)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 || !strings.Contains(stdout.String(), "\ndraining: ") {
			t.Errorf("exit %d after SIGTERM\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the service did not drain on SIGTERM")
	}
}
