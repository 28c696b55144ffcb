package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Stage identifies one cost term of the Sec. 3.3 model. The first four
// map onto the paper's Table 1 primitive throughputs; StageComm is the
// effective rate of the gradient exchange itself (bytes of compressed
// message per second of collective time), the live analogue of Tcomm.
type Stage uint8

const (
	// StageConvert is Tm: precision conversion (fp32↔fp16 round trips,
	// f32↔f64 widening for the transform, range-quantizer encode/decode).
	StageConvert Stage = iota
	// StageTransform is Tf: the forward or inverse FFT/DCT.
	StageTransform
	// StagePack is Tp: sparse gather/scatter and wire (de)serialization.
	StagePack
	// StageSelect is Ts: top-k threshold selection (magnitudes + mask).
	StageSelect
	// StageComm is the exchange: per-rank message bytes over collective
	// seconds, measured (TCP/in-process wall time) or modeled (netsim).
	StageComm
	// NumStages is the number of stages; not itself a stage.
	NumStages
)

// String returns the short label used in metric names ("tm", "tf", ...).
func (s Stage) String() string {
	switch s {
	case StageConvert:
		return "tm"
	case StageTransform:
		return "tf"
	case StagePack:
		return "tp"
	case StageSelect:
		return "ts"
	case StageComm:
		return "comm"
	}
	return "unknown"
}

// ewmaAlpha is the smoothing factor of the per-stage rate EWMAs: new
// rates move the estimate 20% of the way, so a transient (GC pause, OS
// scheduling hiccup) decays within a handful of iterations while a real
// fabric or pipeline change settles in well under an epoch.
const ewmaAlpha = 0.2

// ewmaFloat is a lock-free exponentially weighted moving average.
type ewmaFloat struct{ bits atomic.Uint64 }

func (e *ewmaFloat) update(v float64) {
	for {
		old := e.bits.Load()
		cur := math.Float64frombits(old)
		var nv float64
		if old == 0 { // first sample (rates are positive, so 0.0 means unset)
			nv = v
		} else {
			nv = cur + ewmaAlpha*(v-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

func (e *ewmaFloat) value() float64 { return math.Float64frombits(e.bits.Load()) }

// StageSink receives a copy of every stage observation made through a
// StageTimer that carries one — the seam through which per-rank tracing
// sees compressor-internal stage timings without the compressors knowing
// about tracing. Implementations must be cheap and allocation-free on
// the steady-state path (the 0 allocs/op gates measure through them).
type StageSink interface {
	StageSpan(s Stage, bytes int, start time.Time, dur time.Duration)
}

// stageTimerCore holds the shared measurement state. Several StageTimer
// handles (the base timer plus per-worker WithSink derivations) point at
// one core, so every worker's observations feed the same EWMAs and
// totals regardless of which handle recorded them.
type stageTimerCore struct {
	rate    [NumStages]ewmaFloat // bytes/sec EWMA
	nanos   [NumStages]atomic.Int64
	bytes   [NumStages]atomic.Int64
	samples [NumStages]atomic.Int64
}

// StageTimer measures the live throughput of each pipeline stage. One
// instance is shared by every worker's compressor and by the trainer's
// exchange loop; all updates are atomic and allocation-free, so the
// steady-state 0 allocs/op gate holds with a timer attached.
//
// A nil *StageTimer is valid and every method on it is a no-op, so
// instrumented code paths need no nil checks at call sites.
type StageTimer struct {
	core *stageTimerCore
	sink StageSink
}

// NewStageTimer creates an empty stage timer.
func NewStageTimer() *StageTimer { return &StageTimer{core: &stageTimerCore{}} }

// WithSink returns a handle sharing this timer's measurement state that
// additionally forwards every observation to sink — one handle per
// worker gives its observations rank attribution while the EWMAs stay
// global. A nil receiver yields a fresh standalone timer (so tracing
// works even when no shared timer was configured); a nil sink returns
// the receiver unchanged.
func (t *StageTimer) WithSink(sink StageSink) *StageTimer {
	if t == nil {
		if sink == nil {
			return nil
		}
		return &StageTimer{core: &stageTimerCore{}, sink: sink}
	}
	if sink == nil {
		return t
	}
	return &StageTimer{core: t.core, sink: sink}
}

// ObserveStage records that stage s processed n bytes in the given number
// of seconds. Non-positive inputs are ignored.
func (t *StageTimer) ObserveStage(s Stage, n int, seconds float64) {
	if t == nil || s >= NumStages || n <= 0 || seconds <= 0 {
		return
	}
	t.core.observe(s, n, seconds)
	if t.sink != nil {
		d := time.Duration(seconds * 1e9)
		t.sink.StageSpan(s, n, time.Now().Add(-d), d)
	}
}

// ObserveSince is ObserveStage with the duration measured from start —
// the form the in-pipeline hooks use: t0 := time.Now(); ...stage...;
// timer.ObserveSince(stage, bytes, t0).
func (t *StageTimer) ObserveSince(s Stage, n int, start time.Time) {
	if t == nil || s >= NumStages || n <= 0 {
		return
	}
	d := time.Since(start)
	if d <= 0 {
		return
	}
	t.core.observe(s, n, d.Seconds())
	if t.sink != nil {
		t.sink.StageSpan(s, n, start, d)
	}
}

func (c *stageTimerCore) observe(s Stage, n int, seconds float64) {
	c.rate[s].update(float64(n) / seconds)
	c.nanos[s].Add(int64(seconds * 1e9))
	c.bytes[s].Add(int64(n))
	c.samples[s].Add(1)
}

// Rate returns the EWMA throughput of stage s in bytes/second, or 0 when
// the stage has never been observed.
func (t *StageTimer) Rate(s Stage) float64 {
	if t == nil || s >= NumStages {
		return 0
	}
	return t.core.rate[s].value()
}

// Samples returns how many observations stage s has received.
func (t *StageTimer) Samples(s Stage) int64 {
	if t == nil || s >= NumStages {
		return 0
	}
	return t.core.samples[s].Load()
}

// TotalSeconds returns the cumulative measured time of stage s.
func (t *StageTimer) TotalSeconds(s Stage) float64 {
	if t == nil || s >= NumStages {
		return 0
	}
	return float64(t.core.nanos[s].Load()) / 1e9
}

// Register exposes the timer on reg: one EWMA throughput gauge, one bytes
// counter-gauge and one seconds counter-gauge per stage, all labeled by
// stage name. Exposition reads go through GaugeFunc, so registering adds
// no hot-path cost.
func (t *StageTimer) Register(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	for s := Stage(0); s < NumStages; s++ {
		s := s
		reg.GaugeFunc(
			"fftgrad_stage_throughput_bytes_per_second{stage=\""+s.String()+"\"}",
			"EWMA throughput of one compression-pipeline stage (Sec. 3.3 cost term)",
			func() float64 { return t.Rate(s) })
		reg.GaugeFunc(
			"fftgrad_stage_bytes_total{stage=\""+s.String()+"\"}",
			"total bytes processed by one pipeline stage",
			func() float64 { return float64(t.core.bytes[s].Load()) })
		reg.GaugeFunc(
			"fftgrad_stage_seconds_total{stage=\""+s.String()+"\"}",
			"total measured seconds spent in one pipeline stage",
			func() float64 { return t.TotalSeconds(s) })
	}
}
