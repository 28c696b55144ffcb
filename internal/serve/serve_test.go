package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fftgrad/internal/dist"
)

// fastSpec is a small, quickly converging job for the scheduler tests.
func fastSpec(seed int64) Spec {
	return Spec{Workers: 2, Epochs: 2, Samples: 1024, Seed: seed}
}

func postJob(t *testing.T, url string, spec Spec) (Info, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info Info
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return info, resp
}

func getInfo(t *testing.T, url, id string) Info {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func waitTerminal(t *testing.T, url, id string) Info {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		info := getInfo(t, url, id)
		if info.State.terminal() {
			return info
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return Info{}
}

// TestJobLifecycle walks the full submit → run → stream → complete path
// over HTTP, including the SSE event feed.
func TestJobLifecycle(t *testing.T) {
	srv := New(Config{WorkerSlots: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	info, resp := postJob(t, ts.URL, fastSpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if info.ID == "" || info.Backend != "bsp" {
		t.Fatalf("bad submit info: %+v", info)
	}

	// The SSE feed must replay history and deliver epochs through the
	// terminal event.
	sresp, err := http.Get(ts.URL + "/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var types []string
	epochs := 0
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		types = append(types, ev.Type)
		if ev.Type == "epoch" {
			epochs++
			if ev.Epoch == nil {
				t.Fatal("epoch event without stats")
			}
		}
	}
	if len(types) == 0 || types[0] != "queued" || types[len(types)-1] != "completed" {
		t.Fatalf("event sequence %v", types)
	}
	if epochs != 2 {
		t.Fatalf("streamed %d epoch events, want 2", epochs)
	}

	final := getInfo(t, ts.URL, info.ID)
	if final.State != StateCompleted || final.EpochsDone != 2 {
		t.Fatalf("final info %+v", final)
	}
	if final.TestAcc <= 0.5 {
		t.Fatalf("final accuracy %.3f suspiciously low", final.TestAcc)
	}
}

// TestCancelReleasesQuota pins the quota ledger: canceling a running job
// frees its worker slots and the queued job behind it starts.
func TestCancelReleasesQuota(t *testing.T) {
	srv := New(Config{WorkerSlots: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	long := fastSpec(2)
	long.Epochs = 50 // long enough to still be running when canceled
	a, _ := postJob(t, ts.URL, long)
	b, _ := postJob(t, ts.URL, fastSpec(3))
	if got := getInfo(t, ts.URL, b.ID); got.State != StateQueued {
		t.Fatalf("job B state %s, want queued behind the full pool", got.State)
	}

	if _, err := http.Post(ts.URL+"/jobs/"+a.ID+"/cancel", "", nil); err != nil {
		t.Fatal(err)
	}
	if fa := waitTerminal(t, ts.URL, a.ID); fa.State != StateCanceled {
		t.Fatalf("canceled job state %s", fa.State)
	}
	if fb := waitTerminal(t, ts.URL, b.ID); fb.State != StateCompleted {
		t.Fatalf("queued job after cancel: %s (%s)", fb.State, fb.Error)
	}
}

// TestQueueFullRejects pins the bounded queue: one running, MaxQueue
// queued, and the next submission gets a typed 429.
func TestQueueFullRejects(t *testing.T) {
	srv := New(Config{WorkerSlots: 2, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	long := fastSpec(4)
	long.Epochs = 50
	a, _ := postJob(t, ts.URL, long)
	if _, resp := postJob(t, ts.URL, fastSpec(5)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit status %d", resp.StatusCode)
	}
	_, resp := postJob(t, ts.URL, fastSpec(6))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit status %d, want 429", resp.StatusCode)
	}
	if _, err := srv.Submit(fastSpec(7)); err == nil || !strings.Contains(err.Error(), ErrQueueFull.Error()) {
		t.Fatalf("Submit error %v, want ErrQueueFull", err)
	}
	srv.Cancel(a.ID)
	srv.Drain()
}

// TestBadSpecRejected pins 400 on validation failures.
func TestBadSpecRejected(t *testing.T) {
	srv := New(Config{WorkerSlots: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, spec := range []Spec{
		{Backend: "mpi"},
		{Method: "zstd"},
		{Workers: 128},
		{Backend: "ps", Guard: true},
	} {
		if _, resp := postJob(t, ts.URL, spec); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %+v: status %d, want 400", spec, resp.StatusCode)
		}
	}
	// A job wider than the whole pool can never run.
	if _, resp := postJob(t, ts.URL, Spec{Workers: 4}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("too-wide job accepted")
	}
}

// TestConcurrentJobsMatchSoloQuality is the acceptance gate: two jobs
// with different compressors running concurrently must each converge
// within 2 points of the same spec run alone.
func TestConcurrentJobsMatchSoloQuality(t *testing.T) {
	specA := fastSpec(8)
	specA.Method, specA.Theta = "fft", 0.85
	specB := fastSpec(9)
	specB.Method, specB.Theta = "topk", 0.9

	solo := func(spec Spec) float64 {
		s := spec
		if err := s.normalize(); err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Config()
		if err != nil {
			t.Fatal(err)
		}
		res, err := dist.Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Epochs[len(res.Epochs)-1].TestAcc
	}
	soloA, soloB := solo(specA), solo(specB)

	srv := New(Config{WorkerSlots: 4}) // both jobs fit at once
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	a, _ := postJob(t, ts.URL, specA)
	b, _ := postJob(t, ts.URL, specB)
	fa, fb := waitTerminal(t, ts.URL, a.ID), waitTerminal(t, ts.URL, b.ID)
	if fa.State != StateCompleted || fb.State != StateCompleted {
		t.Fatalf("states %s/%s (%s/%s)", fa.State, fb.State, fa.Error, fb.Error)
	}
	if fa.TestAcc < soloA-0.02 {
		t.Fatalf("concurrent fft job %.3f more than 2 points below solo %.3f", fa.TestAcc, soloA)
	}
	if fb.TestAcc < soloB-0.02 {
		t.Fatalf("concurrent topk job %.3f more than 2 points below solo %.3f", fb.TestAcc, soloB)
	}
}

// TestPerJobObservabilityIsolation: each job's registry and trace ring
// are its own; the merged view distinguishes tenants by job label.
func TestPerJobObservabilityIsolation(t *testing.T) {
	srv := New(Config{WorkerSlots: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	specA := fastSpec(10)
	specB := fastSpec(11)
	specB.Method, specB.Theta = "topk", 0.9
	a, _ := postJob(t, ts.URL, specA)
	b, _ := postJob(t, ts.URL, specB)
	waitTerminal(t, ts.URL, a.ID)
	waitTerminal(t, ts.URL, b.ID)

	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := new(bytes.Buffer)
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	ma := get("/jobs/" + a.ID + "/metrics")
	if !strings.Contains(ma, "fftgrad_") {
		t.Fatalf("job A metrics empty:\n%s", ma)
	}
	merged := get("/jobs/metrics")
	for _, id := range []string{a.ID, b.ID} {
		if !strings.Contains(merged, fmt.Sprintf("job=%q", id)) {
			t.Fatalf("merged metrics missing job=%q:\n%.400s", id, merged)
		}
	}
	ta := get("/jobs/" + a.ID + "/trace")
	if !strings.Contains(ta, fmt.Sprintf("job %s (bsp)", a.ID)) {
		t.Fatalf("job A trace lacks its own process name:\n%.200s", ta)
	}
	tb := get("/jobs/" + b.ID + "/trace")
	if strings.Contains(tb, fmt.Sprintf("job %s ", a.ID)) {
		t.Fatal("job B trace leaked job A's identity")
	}
}

// TestPSJobOverHTTP runs the parameter-server backend through the
// service.
func TestPSJobOverHTTP(t *testing.T) {
	srv := New(Config{WorkerSlots: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec := fastSpec(12)
	spec.Backend = "ps"
	info, resp := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ps submit status %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, info.ID)
	if final.State != StateCompleted || final.Backend != "ps" {
		t.Fatalf("ps job %+v", final)
	}
	if final.TestAcc <= 0.5 {
		t.Fatalf("ps accuracy %.3f", final.TestAcc)
	}
	// Worker slots for the workers, a trace track for the server too, and
	// pushes applied as the iteration count: 2 epochs of 1024/2/16 rounds.
	j, _ := srv.lookup(info.ID)
	if final.Workers != 2 || j.tracer.Ranks() != 3 || final.Iterations != 2*32*2 {
		t.Fatalf("ps job: %d slots, %d tracks, %d iterations; want 2, 3, 128", final.Workers, j.tracer.Ranks(), final.Iterations)
	}
}

// TestCollectiveJobOverHTTP submits a bucketed hierarchical-exchange job
// and pins the validation path: strategy typos and collective options on
// the PS backend are 400s, a valid spec runs to completion.
func TestCollectiveJobOverHTTP(t *testing.T) {
	srv := New(Config{WorkerSlots: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := fastSpec(13)
	bad.Collective = "mesh"
	if _, resp := postJob(t, ts.URL, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown strategy status %d, want 400", resp.StatusCode)
	}
	badPS := fastSpec(13)
	badPS.Backend = "ps"
	badPS.BucketBytes = 1024
	if _, resp := postJob(t, ts.URL, badPS); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ps bucketing status %d, want 400", resp.StatusCode)
	}

	spec := fastSpec(14)
	spec.Workers = 4
	spec.Collective = "hier"
	spec.GroupSize = 2
	spec.BucketBytes = 1024
	info, resp := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("collective submit status %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, info.ID)
	if final.State != StateCompleted {
		t.Fatalf("collective job %+v", final)
	}
	if final.TestAcc <= 0.5 {
		t.Fatalf("collective accuracy %.3f", final.TestAcc)
	}
}

// TestDefaultJobReportsTheta: the epoch events of the default `{}` job,
// and of `{"backend":"ps"}`, carry the drop ratio their codec runs at (the
// FFT default, 0.85), not the 0 a missing ThetaSchedule used to be
// scrubbed to.
func TestDefaultJobReportsTheta(t *testing.T) {
	srv := New(Config{WorkerSlots: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	firstTheta := func(spec Spec) float64 {
		info, resp := postJob(t, ts.URL, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%+v: submit status %d, want 202", spec, resp.StatusCode)
		}
		waitTerminal(t, ts.URL, info.ID)

		sresp, err := http.Get(ts.URL + "/jobs/" + info.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer sresp.Body.Close()
		for sc := bufio.NewScanner(sresp.Body); sc.Scan(); {
			var ev Event
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok && json.Unmarshal([]byte(data), &ev) == nil && ev.Epoch != nil {
				return ev.Epoch.Theta
			}
		}
		t.Fatalf("%+v: no epoch event", spec)
		return 0
	}
	for _, spec := range []Spec{{}, {Backend: "ps"}} { // marshal to {} and {"backend":"ps"}
		if theta := firstTheta(spec); theta != 0.85 {
			t.Fatalf("%+v: first epoch event reports theta %v, want 0.85", spec, theta)
		}
	}
}
