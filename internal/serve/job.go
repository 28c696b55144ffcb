package serve

import (
	"sync"
	"time"

	"fftgrad/internal/checkpoint"
	"fftgrad/internal/dist"
	"fftgrad/internal/obs"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: admitted to the queue, waiting for worker slots.
	StateQueued State = "queued"
	// StateRunning: occupying worker slots, training.
	StateRunning State = "running"
	// StateCompleted: ran to the configured epoch count.
	StateCompleted State = "completed"
	// StateFailed: the backend returned an error.
	StateFailed State = "failed"
	// StateCanceled: canceled by the API (before or during the run).
	StateCanceled State = "canceled"
	// StateHalted: stopped cooperatively by a server drain with its
	// final checkpoint spooled for resumption.
	StateHalted State = "halted"
)

// terminal reports whether no further transitions can happen.
func (s State) terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled || s == StateHalted
}

// Event is one entry in a job's progress feed (served over SSE).
type Event struct {
	Seq   int              `json:"seq"`
	Time  time.Time        `json:"time"`
	Type  string           `json:"type"` // queued|started|epoch|completed|failed|canceled|halted
	Epoch *dist.EpochStats `json:"epoch,omitempty"`
	Error string           `json:"error,omitempty"`
}

// job is the server-side record of one submission.
type job struct {
	id    string
	spec  Spec
	cfg   dist.Config // compiled from spec; the run's harness is set at start
	slots int         // worker-slot quota while running

	// Per-job observability, created at submission so endpoints work
	// while the job is still queued.
	reg    *telemetry.Registry
	tracer *trace.Tracer
	prof   *obs.Profiler

	stop     chan struct{}
	stopOnce sync.Once
	resume   *checkpoint.State // loaded from spec.ResumeFrom at submission

	mu        sync.Mutex
	state     State
	canceling bool // distinguishes cancel-halt from drain-halt
	events    []Event
	updated   chan struct{} // closed and replaced on every append
	result    *dist.Result
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	spool     string // path of the drain-spooled checkpoint, if any
}

func (j *job) cancel() {
	j.stopOnce.Do(func() { close(j.stop) })
}

// append records an event and wakes every stream blocked on updated.
// Callers hold j.mu.
func (j *job) append(typ string, epoch *dist.EpochStats, errMsg string) {
	j.events = append(j.events, Event{
		Seq:   len(j.events),
		Time:  time.Now(),
		Type:  typ,
		Epoch: epoch,
		Error: errMsg,
	})
	close(j.updated)
	j.updated = make(chan struct{})
}

// wait returns the events after seq and a channel that is closed when
// more arrive (nil when the job is terminal and fully consumed).
func (j *job) wait(seq int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var pending []Event
	if seq < len(j.events) {
		pending = append(pending, j.events[seq:]...)
	}
	if j.state.terminal() {
		return pending, nil
	}
	return pending, j.updated
}

// Info is the JSON view of a job.
type Info struct {
	ID       string  `json:"id"`
	Name     string  `json:"name,omitempty"`
	Backend  string  `json:"backend"`
	State    State   `json:"state"`
	Workers  int     `json:"workers"`
	Priority int     `json:"priority,omitempty"`
	Method   string  `json:"method"`
	Theta    float64 `json:"theta"`

	EpochsDone   int     `json:"epochs_done"`
	EpochsWanted int     `json:"epochs_wanted"`
	TrainLoss    float64 `json:"train_loss,omitempty"`
	TestAcc      float64 `json:"test_acc,omitempty"`

	Iterations       int     `json:"iterations,omitempty"`
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
	Rejoins          uint64  `json:"rejoins,omitempty"`

	// Fault is the fault/guard/staleness summary of a job on the
	// failure-aware path: live from the job's telemetry registry while
	// the job runs, final from the result afterwards. Absent on the
	// barrier path and on PS jobs.
	Fault *FaultInfo `json:"fault,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	Spool     string    `json:"spool,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// FaultInfo is the fault/guard/staleness summary surfaced in Info for
// jobs on the failure-aware path.
type FaultInfo struct {
	Suspicions       uint64 `json:"suspicions"`
	Rejoins          uint64 `json:"rejoins"`
	StaleReuses      uint64 `json:"stale_reuses"`
	StalenessCurrent uint64 `json:"staleness_current"`
	StalenessMax     uint64 `json:"staleness_max"`
	ElasticJoins     uint64 `json:"elastic_joins"`
	GossipRounds     uint64 `json:"gossip_rounds"`
	LostWorkers      int    `json:"lost_workers,omitempty"`

	GuardAnomalies uint64 `json:"guard_anomalies,omitempty"`
	GuardRollbacks uint64 `json:"guard_rollbacks,omitempty"`
}

// faultInfo builds the summary: final result stats when the run is over,
// otherwise a live read of the job's telemetry registry — the same
// counters the merged /metrics view exports, so a dashboard and this
// endpoint can never disagree. Callers hold j.mu.
func (j *job) faultInfo() *FaultInfo {
	if j.result != nil && j.result.Fault != nil {
		cs := j.result.Fault.Cluster
		fi := &FaultInfo{
			Suspicions:       cs.Suspicions,
			Rejoins:          cs.Rejoins,
			StaleReuses:      cs.StaleReuses,
			StalenessCurrent: 0, // final: the run is over, nothing in flight
			StalenessMax:     cs.StalenessMax,
			ElasticJoins:     cs.ElasticJoins,
			GossipRounds:     cs.GossipRounds,
			LostWorkers:      j.result.Fault.LostWorkers,
		}
		if g := j.result.Guard; g != nil {
			fi.GuardAnomalies = g.Anomalies
			fi.GuardRollbacks = g.Rollbacks
		}
		return fi
	}
	if j.state != StateRunning || !j.spec.faultPath() {
		return nil
	}
	snap := j.reg.Snapshot()
	return &FaultInfo{
		Suspicions:       uint64(snap["fftgrad_cluster_suspicions_total"]),
		Rejoins:          uint64(snap["fftgrad_cluster_rejoins_total"]),
		StaleReuses:      uint64(snap["fftgrad_cluster_stale_reuses_total"]),
		StalenessCurrent: uint64(snap["fftgrad_staleness_current"]),
		StalenessMax:     uint64(snap["fftgrad_staleness_max"]),
		ElasticJoins:     uint64(snap["fftgrad_elastic_joins_total"]),
		GossipRounds:     uint64(snap["fftgrad_gossip_rounds_total"]),
		GuardAnomalies:   uint64(snap["fftgrad_guard_anomalies"]),
		GuardRollbacks:   uint64(snap["fftgrad_guard_rollbacks"]),
	}
}

// info snapshots the job under its lock.
func (j *job) info() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	in := Info{
		ID:           j.id,
		Name:         j.spec.Name,
		Backend:      j.spec.Backend,
		State:        j.state,
		Workers:      j.slots,
		Priority:     j.spec.Priority,
		Method:       j.spec.Method,
		Theta:        j.spec.Theta,
		EpochsWanted: j.spec.Epochs,
		Submitted:    j.submitted,
		Started:      j.started,
		Finished:     j.finished,
		Spool:        j.spool,
	}
	for _, ev := range j.events {
		if ev.Epoch != nil {
			in.EpochsDone++
			in.TrainLoss = ev.Epoch.TrainLoss
			in.TestAcc = ev.Epoch.TestAcc
		}
	}
	if j.result != nil {
		in.Iterations = j.result.Iterations
		in.CompressionRatio = j.result.CompressionRatio
		if j.result.Fault != nil {
			in.Rejoins = j.result.Fault.Cluster.Rejoins
		}
	}
	in.Fault = j.faultInfo()
	if j.err != nil {
		in.Error = j.err.Error()
	}
	return in
}
