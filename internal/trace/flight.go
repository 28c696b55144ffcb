package trace

import (
	"fmt"
	"sync"

	"fftgrad/internal/checkpoint"
)

// Reason says why a flight-recorder dump fired.
type Reason uint8

const (
	ReasonManual   Reason = iota // explicit operator/test trigger
	ReasonRollback               // guard anomaly ladder rolled parameters back
	ReasonNoQuorum               // cluster lost quorum (terminal)
	ReasonCrash                  // a transport entered a chaos crash window
	ReasonPanic                  // a worker goroutine panicked
	ReasonFailure                // unclassified terminal training error
	ReasonViewGrow               // elastic join grew the membership view
	ReasonAnomaly                // profiler EWMA z-score breach (obs package)
	numReasons
)

var reasonNames = [numReasons]string{
	ReasonManual:   "manual",
	ReasonRollback: "rollback",
	ReasonNoQuorum: "no_quorum",
	ReasonCrash:    "crash",
	ReasonPanic:    "panic",
	ReasonFailure:  "failure",
	ReasonViewGrow: "view_grow",
	ReasonAnomaly:  "anomaly",
}

// String returns the reason label used in dump file names and logs.
func (r Reason) String() string {
	if r < numReasons {
		return reasonNames[r]
	}
	return "unknown"
}

// FlightRecorder turns the tracer's always-on ring into a postmortem
// artifact: Trigger snapshots the last-N-iteration timeline and writes
// it atomically to disk the moment an incident (rollback, quorum loss,
// crash window, panic) fires, so chaos-harness investigations replay a
// Perfetto timeline instead of digging through logs.
//
// A nil *FlightRecorder is valid; Trigger is a no-op. All methods are
// safe for concurrent use — incidents on several ranks at once serialize
// on an internal mutex, and maxDumps bounds disk usage when an incident
// storm (e.g. a flapping partition) keeps firing.
type FlightRecorder struct {
	tr   *Tracer
	path string

	mu    sync.Mutex
	dumps int
}

// maxDumps caps how many dumps one run may write. The cap counts
// attempts, so a persistent write error cannot turn an incident storm
// into a disk-filling loop.
const maxDumps = 16

// NewFlightRecorder dumps tr to path on Trigger. Returns nil when either
// the tracer or the path is absent, so wiring can stay unconditional.
func NewFlightRecorder(tr *Tracer, path string) *FlightRecorder {
	if tr == nil || path == "" {
		return nil
	}
	return &FlightRecorder{tr: tr, path: path}
}

// Dumps returns how many dump attempts have fired.
func (f *FlightRecorder) Dumps() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}

// Trigger records an OpFlightTrigger instant on rank's track (so the
// dump provably contains its own cause) and writes the timeline to the
// recorder's path via the checkpoint package's atomic write. Returns the
// dump path, or "" when the recorder is nil or the dump cap is reached.
func (f *FlightRecorder) Trigger(rank int, reason Reason) string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dumps >= maxDumps {
		return ""
	}
	f.dumps++
	tc := f.tr.Rank(rank)
	if tc == nil {
		tc = f.tr.Rank(0)
	}
	tc.Instant(OpFlightTrigger, int64(reason))
	data, err := f.tr.MarshalJSON()
	if err != nil {
		fmt.Printf("trace: flight dump %s failed to render: %v\n", f.path, err)
		return ""
	}
	if err := checkpoint.WriteBytesAtomic(f.path, data); err != nil {
		fmt.Printf("trace: flight dump %s failed to write: %v\n", f.path, err)
		return ""
	}
	fmt.Printf("trace: flight recorder dumped %d bytes to %s (reason %s, rank %d)\n",
		len(data), f.path, reason, rank)
	return f.path
}
