package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
	"unsafe"

	"fftgrad/internal/buildinfo"
	"fftgrad/internal/checkpoint"
	"fftgrad/internal/stats"
	"fftgrad/internal/trace"
)

// The rolling anomaly engine: per-rank EWMA mean/variance over iteration
// latency and per-stage shares, updated on every Commit. A sample whose
// z-score breaches the threshold after warm-up fires an anomalyEvent
// into the capture channel — non-blocking, so a storm of breaches while
// a capture is in flight degrades to a counter bump, never a stall on
// the training path.

const (
	// anomalyWarmup: samples before z-scores are trusted — the EWMA needs
	// to see the steady state before deviations from it mean anything.
	anomalyWarmup = 32
	// anomalyZ: |z| breach threshold. 4 sigma on an EWMA variance is
	// deliberately coarse: the engine exists to catch a rank falling off
	// a cliff (GC pause, page-in, a straggling link), not ±10% jitter.
	anomalyZ = 4.0
	// ewmaAlpha: smoothing factor for mean/variance tracking.
	ewmaAlpha = 0.05
)

// zscore returns x's z-score against e *before* x is folded in (0 until
// warm-up completes, or while the variance is 0), then folds x in.
func zscore(e *stats.EWMA, x float64) float64 {
	var z float64
	if e.N >= anomalyWarmup && e.Var > 0 {
		z = (x - e.Mean) / math.Sqrt(e.Var)
	}
	e.Add(x, ewmaAlpha)
	return z
}

// anomalyCells are one rank's three statistics.
type anomalyCells struct {
	latency   stats.EWMA // iteration latency (seconds)
	commShare stats.EWMA // exchange share of the iteration
	compShare stats.EWMA // compute share of the iteration
}

// anomalyState is one rank's engine cell, touched only by that rank's
// Commit goroutine, padded to whole 64-byte cache lines so neighbouring
// ranks never share one.
type anomalyState struct {
	anomalyCells
	_ [(64 - unsafe.Sizeof(anomalyCells{})%64) % 64]byte
}

// anomalyEvent is one breach handed to the capture worker.
type anomalyEvent struct {
	Rank   int     `json:"rank"`
	Iter   int64   `json:"iter"`
	Metric string  `json:"metric"` // "latency" | "comm_share" | "compute_share"
	Value  float64 `json:"value"`
	Z      float64 `json:"zscore"`
}

// anomalyCheck scores one committed record. Pure float math plus, on
// breach, a counter bump and a non-blocking channel send — no allocation
// (the metric names are string constants).
func (p *Profiler) anomalyCheck(rank int, rec *IterRecord, latency float64) {
	st := &p.anom[rank]
	wall := float64(rec.EndNs - rec.StartNs)
	var commShare, compShare float64
	if wall > 0 {
		commShare = float64(rec.ExchangeNs) / wall
		compShare = float64(rec.ComputeNs) / wall
	}
	if z := zscore(&st.latency, latency); z > anomalyZ || z < -anomalyZ {
		p.breach(rank, rec.Iter, "latency", latency, z)
	}
	if z := zscore(&st.commShare, commShare); z > anomalyZ || z < -anomalyZ {
		p.breach(rank, rec.Iter, "comm_share", commShare, z)
	}
	if z := zscore(&st.compShare, compShare); z > anomalyZ || z < -anomalyZ {
		p.breach(rank, rec.Iter, "compute_share", compShare, z)
	}
}

func (p *Profiler) breach(rank int, iter int64, metric string, v, z float64) {
	p.breaches.Add(1)
	if p.captureCh == nil {
		return
	}
	select {
	case p.captureCh <- anomalyEvent{Rank: rank, Iter: iter, Metric: metric, Value: v, Z: z}:
	default: // capture in flight or queue full: the counter already recorded it
	}
}

// CaptureConfig wires the anomaly engine to its capture side-effects.
type CaptureConfig struct {
	// Dir receives the pprof CPU profiles and cross-link files.
	Dir string
	// Flight, when set, dumps the trace ring on each capture (reason
	// "anomaly") so the timeline and the CPU profile cover the same
	// moment.
	Flight *trace.FlightRecorder
}

const (
	// maxCaptures caps captures per run: anomalies cluster, and each
	// capture costs a cpuProfileDur pause of *sampling* (not stopping)
	// plus two file writes.
	maxCaptures = 4
	// cpuProfileDur is how long the CPU profile samples — long enough to
	// catch the culprit of a latency cliff that is still happening, short
	// enough to stay out of the way.
	cpuProfileDur = 250 * time.Millisecond
)

// capturer is the background capture worker's state.
type capturer struct {
	cfg      CaptureConfig
	window   time.Duration // CPU profile length: cpuProfileDur, shorter in tests
	done     chan struct{}
	wg       sync.WaitGroup
	mu       sync.Mutex
	captures []CaptureRecord
}

// CaptureRecord cross-links one capture's artifacts by iteration.
type CaptureRecord struct {
	anomalyEvent
	CPUProfile string `json:"cpu_profile,omitempty"`
	FlightDump string `json:"flight_dump,omitempty"`
	CrossLink  string `json:"cross_link,omitempty"`
	Version    string `json:"version"`
	Go         string `json:"go"`
}

// EnableCapture starts the anomaly-capture worker: every breach (up to
// maxCaptures) captures a pprof CPU profile window, triggers the flight
// recorder, and writes a cross-link JSON keyed by iteration tying the
// two artifacts together. Returns a stop function that drains the worker
// (idempotent). Call once per run, before training starts (like
// Instrument, the channel wiring is not synchronized against Commit); a
// second call on the same profiler is a no-op.
func (p *Profiler) EnableCapture(cfg CaptureConfig) func() {
	if p == nil || p.capt != nil {
		return func() {}
	}
	c := &capturer{cfg: cfg, window: cpuProfileDur, done: make(chan struct{})}
	p.capt = c
	p.captureCh = make(chan anomalyEvent, 8)
	c.wg.Add(1)
	go c.run(p)
	var once sync.Once
	return func() {
		once.Do(func() {
			close(c.done)
			c.wg.Wait()
		})
	}
}

// Captures returns the cross-linked capture records so far (nil when
// capture was never enabled).
func (p *Profiler) Captures() []CaptureRecord {
	if p == nil || p.capt == nil {
		return nil
	}
	c := p.capt
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CaptureRecord(nil), c.captures...)
}

func (c *capturer) run(p *Profiler) {
	defer c.wg.Done()
	taken := 0
	for {
		select {
		case <-c.done:
			return
		case ev := <-p.captureCh:
			if taken >= maxCaptures {
				continue
			}
			taken++
			c.capture(ev)
		}
	}
}

// capture performs one anomaly capture: CPU profile window, flight dump,
// cross-link file. Failures degrade field by field — a capture that can
// only produce the flight dump still cross-links it.
func (c *capturer) capture(ev anomalyEvent) {
	rec := CaptureRecord{
		anomalyEvent: ev,
		Version:      buildinfo.Version(),
		Go:           buildinfo.GoVersion(),
	}
	if c.cfg.Dir != "" {
		if err := os.MkdirAll(c.cfg.Dir, 0o755); err == nil {
			cpuPath := filepath.Join(c.cfg.Dir, fmt.Sprintf("obs-cpu-iter%d.pprof", ev.Iter))
			if f, err := os.Create(cpuPath); err == nil {
				if err := pprof.StartCPUProfile(f); err == nil {
					timer := time.NewTimer(c.window)
					select {
					case <-timer.C:
					case <-c.done:
						timer.Stop()
					}
					pprof.StopCPUProfile()
					rec.CPUProfile = cpuPath
				}
				_ = f.Close()
			}
		}
	}
	if c.cfg.Flight != nil {
		rec.FlightDump = c.cfg.Flight.Trigger(ev.Rank, trace.ReasonAnomaly)
	}
	if c.cfg.Dir != "" {
		link := filepath.Join(c.cfg.Dir, fmt.Sprintf("obs-anomaly-iter%d.json", ev.Iter))
		if data, err := json.MarshalIndent(&rec, "", "  "); err == nil {
			if err := checkpoint.WriteBytesAtomic(link, data); err == nil {
				rec.CrossLink = link
			}
		}
	}
	fmt.Printf("obs: anomaly capture iter %d rank %d (%s z=%.1f): cpu=%s flight=%s\n",
		ev.Iter, ev.Rank, ev.Metric, ev.Z, orNone(rec.CPUProfile), orNone(rec.FlightDump))
	c.mu.Lock()
	c.captures = append(c.captures, rec)
	c.mu.Unlock()
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
