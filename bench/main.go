// Command bench is the repository's benchmark: five training workloads
// measured end to end through dist.Train, and a traced replay of the
// same training step for the per-layer numbers. See README.md.
//
//	bench -workload wide_fft -seed 1 -seconds 15 -trace 0   end-to-end metrics
//	bench -workload wide_fft -seed 1 -trace 1               per-layer metrics
//	bench -workload all                                     every workload, both passes
//	bench -compare A.jsonl B.jsonl                          do two sets of runs agree
//
// Run it from the repository root through bench/run.sh, which builds it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	outDir       = "bench/out"
	resultPrefix = "BENCH-RESULT " // marks a child's report line on its stdout
	setupRuns    = 5               // cold set-ups per run; setup_s is the quickest
	// The contract gives one invocation 180 s. Whatever hangs, the
	// children's deadlines together stay below it.
	invocationCap = 170 * time.Second
	setupExpected = 5 * time.Second // a set-up-only child, generously
	slowIterMs    = 70              // no workload's iteration takes longer on the sizing box
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\"")
		seed    = flag.Int64("seed", 1, "seed of dataset, model and run")
		seconds = flag.Float64("seconds", 0, "length of the timed window of an untraced run; 0 takes run_seconds of BENCHMARK.json")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics through dist.Train; 1: per-layer metrics from the traced replay")
		out     = flag.String("out", filepath.Join(outDir, "runs.jsonl"), "file every run record is appended to")
		compare = flag.Bool("compare", false, "compare two sets of run records: bench -compare A.jsonl B.jsonl")
		child   = flag.String("child", "", "internal: run one measurement in this process (e2e, setup, traced)")
		spawn   = flag.Int64("spawn", 0, "internal: parent's clock at spawn, unix ns")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare A.jsonl B.jsonl")
		}
		spec, err := loadSpec()
		if err != nil {
			fatalf("%v", err)
		}
		os.Exit(runCompare(os.Stdout, spec, flag.Arg(0), flag.Arg(1)))
	case *child != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		runChild(*child, w, *seed, *seconds, time.Unix(0, *spawn))
	default:
		spec, err := loadSpec()
		if err != nil {
			fatalf("%v", err)
		}
		self, err := os.Executable()
		if err != nil {
			fatalf("%v", err)
		}
		if *seconds <= 0 {
			*seconds = float64(spec.RunSeconds)
		}
		// A signal ends the children with the benchmark.
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		p := parent{ctx: ctx, spec: spec, self: self, out: *out, seed: *seed, seconds: *seconds}
		if *name == "all" {
			os.Exit(p.runAll())
		}
		w, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q; have %s and \"all\"", *name, strings.Join(workloadNames(), ", "))
		}
		rec := p.run(w, *traced == 1)
		rec.print(os.Stdout)
		fmt.Println(rec.lastLine())
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runChild is the body of a child process: one measurement, reported as
// one marked JSON line.
func runChild(mode string, w workload, seed int64, seconds float64, spawn time.Time) {
	var rep any
	switch mode {
	case "e2e":
		rep = runE2E(w, seed, seconds, budgetBlocks, spawn, false)
	case "setup":
		rep = runE2E(w, seed, 0, 0, spawn, true)
	case "traced":
		rep = runTraced(w, seed, tracedDefault(w, seed))
	default:
		fatalf("unknown child mode %q", mode)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s%s\n", resultPrefix, b)
}

// spawnChild runs one child of exe under a hard deadline and decodes its
// report into rep. A child that is killed, crashes or reports nothing
// comes back as an error; it never hangs the benchmark.
func spawnChild(ctx context.Context, exe string, args []string, deadline time.Duration, rep any) error {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append(args, fmt.Sprintf("-spawn=%d", time.Now().UnixNano()))...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 2 * time.Second // a killed child's pipes are not waited on for ever
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	if ctx.Err() != nil {
		return fmt.Errorf("watchdog: child killed: %w (deadline %v)", context.Cause(ctx), deadline)
	}
	if err != nil {
		return fmt.Errorf("child: %w", err)
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if js, ok := strings.CutPrefix(line, resultPrefix); ok {
			return json.Unmarshal([]byte(js), rep)
		}
	}
	return errors.New("child printed no result")
}

// provenance stamps a run record.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg    float64 `json:"loadavg_start"`
	Time       string  `json:"time"`
}

func stamp() provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Time: time.Now().UTC().Format(time.RFC3339),
	}
	// git may not look for a repository above the checkout.
	git := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(b), "%f", &p.LoadAvg)
	}
	return p
}

// record is one run as written to the -out file: every metric measured,
// whether or not the contract's last line carries it.
type record struct {
	Provenance provenance        `json:"provenance"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Problems   []string          `json:"problems,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	BlockMs    []float64         `json:"block_ms,omitempty"`   // timed blocks
	BlockLoss  []float64         `json:"block_loss,omitempty"` // timed blocks, for exact comparison

	listed []metricSpec // the metrics BENCHMARK.json names for this pass
}

type parent struct {
	ctx     context.Context
	spec    *benchSpec
	self    string
	out     string
	seed    int64
	seconds float64
}

// expected returns how long a measuring child should take: set-up, then
// the timed window or the iteration budget, whichever ends later.
func (p parent) expected() time.Duration {
	window := max(p.seconds, budgetIters*slowIterMs/1e3)
	return setupExpected + time.Duration(window*float64(time.Second))
}

// run measures one workload in child processes (so peak RSS, scratch
// pools and plan caches are the workload's own), checks the outcome
// against BENCHMARK.json and appends the record to the -out file.
func (p parent) run(w workload, traced bool) *record {
	rec := &record{Provenance: stamp(), Workload: w.name, Seed: p.seed, Seconds: p.seconds, Traced: traced}
	args := func(mode string) []string {
		return []string{"-child", mode, "-workload", w.name, fmt.Sprintf("-seed=%d", p.seed), fmt.Sprintf("-seconds=%g", p.seconds)}
	}
	if traced {
		rec.listed = p.spec.PerLayer
		var rep tracedReport
		if err := spawnChild(p.ctx, p.self, args("traced"), invocationCap, &rep); err != nil {
			rep = tracedReport{Err: err.Error(), Attempted: replayBlocks * blockIters, Failed: replayBlocks * blockIters}
		}
		rec.Metrics, rec.Attempted, rec.Failed, rec.Problems = rep.Metrics, rep.Attempted, rep.Failed, rep.Problems
		if rep.Err != "" {
			rec.Problems = append(rec.Problems, "traced run failed: "+rep.Err)
		}
	} else {
		rec.listed = p.spec.EndToEnd
		// Set-up is timed cold: every sample is a fresh process, so a
		// plan cache or pool filled by an earlier sample cannot hide
		// work moved into set-up.
		var setups []float64
		var setupProblems []string
		left := invocationCap
		for i := 0; i < setupRuns-1; i++ {
			var rep e2eReport
			t0 := time.Now()
			err := spawnChild(p.ctx, p.self, args("setup"), min(5*setupExpected, left/4), &rep)
			if err == nil && rep.Err != "" {
				err = errors.New(rep.Err)
			}
			if err != nil {
				setupProblems = append(setupProblems, "set-up child failed: "+err.Error())
			} else {
				setups = append(setups, rep.SetupS)
			}
			left -= time.Since(t0)
		}
		var rep e2eReport
		if err := spawnChild(p.ctx, p.self, args("e2e"), min(5*p.expected(), left), &rep); err != nil {
			rep = e2eReport{Err: err.Error()}
		} else {
			setups = append(setups, rep.SetupS)
		}
		o := deriveE2E(w, &rep, setups, budgetIters)
		rec.Metrics, rec.Attempted, rec.Failed, rec.Problems = o.Metrics, o.Attempted, o.Failed, append(o.Problems, setupProblems...)
		rec.BlockMs, rec.BlockLoss = rep.BlockMs, rep.BlockLoss
	}
	if rec.Metrics == nil {
		rec.Metrics = map[string]metric{}
	}
	for _, m := range rec.listed {
		got, ok := rec.Metrics[m.Name]
		switch {
		case !ok:
			rec.Problems = append(rec.Problems, fmt.Sprintf("metric %s of BENCHMARK.json was not measured", m.Name))
		case got.Unit != m.Unit:
			rec.Problems = append(rec.Problems, fmt.Sprintf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit))
		}
	}
	rec.Correct = len(rec.Problems) == 0
	if err := appendRecord(p.out, rec); err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", p.out, err)
	}
	return rec
}

// runAll is the one command that prints every metric of every workload:
// the untraced pass, then the traced pass. It returns the exit code.
func (p parent) runAll() int {
	code := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			rec := p.run(w, traced)
			rec.print(os.Stdout)
			if !rec.Correct {
				code = 1
			}
		}
	}
	return code
}

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// print writes the run as a table: every measured metric by name with
// its unit and sample count, then the verdict.
func (r *record) print(w *os.File) {
	pass := "end-to-end (dist.Train, observability off)"
	if r.Traced {
		pass = "per-layer (traced replay + ledger)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s\n", r.Workload, r.Seed, pass)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  VIOLATION: %s\n", p)
	}
}

// lastLine is the contract's result object: exactly the metrics that
// BENCHMARK.json lists for this pass.
func (r *record) lastLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, m := range r.listed {
		if got, ok := r.Metrics[m.Name]; ok {
			ms[m.Name] = mv{got.Value, got.Unit}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, ms})
	return string(b)
}
