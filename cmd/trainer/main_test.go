package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/guard"
	"fftgrad/internal/models"
	"fftgrad/internal/netsim"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/serve"
)

// The flag sets of the three CLI gates (make chaos, make guard and the
// trace smoke): rows of TestBothSurfacesCompileOneConfig, and what
// TestSmoke* run.
const (
	chaosArgs = "-model mlp -epochs 2 -workers 4 -fault-aware -chaos-drop 0.05 -chaos-delay 10ms -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000"
	guardArgs = "-model mlp -epochs 2 -workers 4 -fault-aware -guard -chaos-corrupt 0.05"
	traceArgs = "-model mlp -epochs 2 -workers 4 -fault-aware -guard -chaos-drop 0.05 -chaos-corrupt 0.02 -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000"
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

// TestBothSurfacesCompileOneConfig: every trainer invocation the README,
// the Makefile and ci.yml show, parsed to a Spec, must survive the JSON
// surface — marshal, decode — and compile to the same dist.Config, so
// whatever the flags can say a POST /jobs body can say too.
func TestBothSurfacesCompileOneConfig(t *testing.T) {
	for _, args := range []string{
		"", // the default run
		// README.md
		"-method fft -theta 0.85 -workers 8 -epochs 5 -trace",
		"-method topk -theta 0.9 -drop-epoch 3",
		"-sparse-allreduce -theta 0.9",
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
		// Makefile and ci.yml: chaos, guard, trace, obs-smoke,
		// collective-smoke, elastic-smoke (both runs)
		chaosArgs,
		guardArgs,
		traceArgs + " -trace-out trace-smoke.json",
		"-model mlp -epochs 2 -workers 4 -fault-aware -chaos-straggle 2 -chaos-straggle-by 15ms -profile-out obs-smoke.json -trace-out obs-smoke-trace.json",
		"-model mlp -epochs 2 -workers 4 -fault-aware -collective hier -group-size 2 -bucket-bytes 1024 -chaos-drop 0.05 -chaos-delay 10ms -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000",
		"-model mlp -epochs 2 -workers 4 -seed 7 -staleness 4 -chaos-drop 0.03 -chaos-delay 5ms",
		"-model mlp -epochs 2 -workers 4 -seed 7 -staleness 4 -elastic-join 20 -chaos-drop 0.03 -chaos-delay 5ms -chaos-straggle 3 -chaos-straggle-at 300 -chaos-straggle-by 20ms -trace-out elastic-smoke.json",
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
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ph  string `json:"ph"`
		Tid int    `json:"tid"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace dump does not parse: %v", err)
	}
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
