package serve

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fftgrad/internal/buildinfo"
	"fftgrad/internal/checkpoint"
	"fftgrad/internal/dist"
	"fftgrad/internal/obs"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// Typed admission errors; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull: the bounded queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining: the server is shutting down (HTTP 503).
	ErrDraining = errors.New("serve: server is draining")
	// ErrTooManyWorkers: the job's quota exceeds the whole pool (400).
	ErrTooManyWorkers = errors.New("serve: job wants more workers than the pool has")
	// ErrNotFound: no such job id (404).
	ErrNotFound = errors.New("serve: no such job")
)

// Config tunes the scheduler.
type Config struct {
	// WorkerSlots is the shared pool every running job draws its quota
	// from (default 8).
	WorkerSlots int
	// MaxQueue bounds the admission queue; a full queue rejects with
	// ErrQueueFull (default 16).
	MaxQueue int
	// SpoolDir receives <id>.ckpt files when a drain halts running jobs;
	// "" disables spooling (drained jobs still halt cleanly).
	SpoolDir string
}

// traceEvents sizes each job's per-track trace ring: the last 256
// iterations.
const traceEvents = trace.DefaultEventsPerIteration * 256

// Server owns the job table, the queue, and the worker-slot ledger.
type Server struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job // submission order, for listing
	queue    []*job // admission order: priority desc, then arrival asc
	free     int    // unoccupied worker slots
	nextID   int
	draining bool
	wg       sync.WaitGroup
}

// New creates a Server with cfg's defaults applied.
func New(cfg Config) *Server {
	if cfg.WorkerSlots <= 0 {
		cfg.WorkerSlots = 8
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	return &Server{
		cfg:  cfg,
		jobs: make(map[string]*job),
		free: cfg.WorkerSlots,
	}
}

// Submit validates and admits a job, returning its queued Info. The
// scheduler may start it before Submit returns.
func (s *Server) Submit(spec Spec) (Info, error) {
	if err := spec.normalize(); err != nil {
		return Info{}, fmt.Errorf("serve: bad spec: %w", err)
	}
	cfg, err := spec.Config()
	if err != nil {
		return Info{}, fmt.Errorf("serve: bad spec: %w", err)
	}
	slots := cfg.Tracks()
	if cfg.PS != nil {
		slots-- // the server's track is no worker slot
	}
	if slots > s.cfg.WorkerSlots {
		return Info{}, fmt.Errorf("%w: %d > %d", ErrTooManyWorkers, slots, s.cfg.WorkerSlots)
	}
	var resume *checkpoint.State
	if spec.ResumeFrom != "" {
		resume, err = checkpoint.ReadFile(spec.ResumeFrom)
		if err != nil {
			return Info{}, fmt.Errorf("serve: resume_from: %w", err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Info{}, ErrDraining
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		return Info{}, ErrQueueFull
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("j-%d", s.nextID),
		spec:      spec,
		cfg:       cfg,
		slots:     slots,
		reg:       telemetry.NewRegistry(),
		tracer:    trace.New(cfg.Tracks(), traceEvents),
		prof:      obs.New(cfg.Tracks(), 0),
		stop:      make(chan struct{}),
		state:     StateQueued,
		updated:   make(chan struct{}),
		submitted: time.Now(),
	}
	j.tracer.SetName(fmt.Sprintf("job %s (%s)", j.id, spec.Backend))
	buildinfo.Register(j.reg)
	j.tracer.Instrument(j.reg)
	j.prof.Instrument(j.reg)
	j.resume = resume
	j.mu.Lock()
	j.append("queued", nil, "")
	j.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j)

	// Queue insertion keeps admission order: priority descending, then
	// arrival ascending (stable within a priority band).
	s.queue = append(s.queue, j)
	sort.SliceStable(s.queue, func(a, b int) bool {
		return s.queue[a].spec.Priority > s.queue[b].spec.Priority
	})
	s.schedule()
	return j.info(), nil
}

// schedule starts queued jobs while the head fits the free slots.
// Head-of-line blocking is deliberate: a wide job at the head is not
// overtaken by narrow jobs behind it, so big tenants cannot starve.
// Callers hold s.mu.
func (s *Server) schedule() {
	for len(s.queue) > 0 {
		head := s.queue[0]
		if head.slots > s.free {
			return
		}
		s.queue = s.queue[1:]
		s.start(head)
	}
}

// start transitions a job to running and launches its goroutine.
// Callers hold s.mu.
func (s *Server) start(j *job) {
	s.free -= j.slots
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.append("started", nil, "")
	j.mu.Unlock()

	// The job's own harness: its stop channel, observability and resume
	// point, and the progress stream behind its event feed.
	cfg := j.cfg
	cfg.Stop, cfg.Telemetry, cfg.Tracer, cfg.Profiler, cfg.Resume = j.stop, j.reg, j.tracer, j.prof, j.resume
	cfg.OnEpoch = func(st dist.EpochStats) {
		// encoding/json refuses NaN/Inf (e.g. Theta on the fp32 path
		// reports NaN for "no drop ratio in effect"); scrub so one odd
		// float can't kill the event stream.
		for _, f := range []*float64{&st.TrainLoss, &st.TestAcc, &st.Theta, &st.LR} {
			if math.IsNaN(*f) || math.IsInf(*f, 0) {
				*f = 0
			}
		}
		j.mu.Lock()
		j.append("epoch", &st, "")
		j.mu.Unlock()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		res, err := dist.Train(cfg)
		s.finish(j, res, err)
	}()
}

// finish records the outcome, releases the quota, and reschedules.
func (s *Server) finish(j *job, res *dist.Result, err error) {
	j.mu.Lock()
	j.result = res
	j.err = err
	j.finished = time.Now()
	switch {
	case err != nil:
		j.state = StateFailed
		j.append("failed", nil, err.Error())
	case res.Halted && j.canceling:
		j.state = StateCanceled
		j.append("canceled", nil, "")
	case res.Halted:
		j.state = StateHalted
		j.append("halted", nil, "")
	default:
		j.state = StateCompleted
		j.append("completed", nil, "")
	}
	j.mu.Unlock()

	s.mu.Lock()
	s.free += j.slots
	s.schedule()
	s.mu.Unlock()
}

// Cancel stops a job: a queued job is removed and terminal immediately;
// a running job gets its stop channel closed and halts at the next
// iteration boundary, releasing its quota when the run returns.
func (s *Server) Cancel(id string) (Info, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Info{}, ErrNotFound
	}
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	s.mu.Unlock()

	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.finished = time.Now()
		j.append("canceled", nil, "")
	case StateRunning:
		j.canceling = true
	}
	j.mu.Unlock()
	j.cancel()
	return j.info(), nil
}

// Get returns one job's Info.
func (s *Server) Get(id string) (Info, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Info{}, ErrNotFound
	}
	return j.info(), nil
}

// List returns every job in submission order.
func (s *Server) List() []Info {
	s.mu.Lock()
	order := append([]*job(nil), s.order...)
	s.mu.Unlock()
	out := make([]Info, 0, len(order))
	for _, j := range order {
		out = append(out, j.info())
	}
	return out
}

// Ready reports whether the server is accepting submissions — the
// /readyz signal. It flips false the moment a drain begins, so a load
// balancer stops routing new submissions while running jobs halt.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// lookup fetches the raw job record (for the observability endpoints).
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Drain gracefully shuts the service down: admission closes (Submit
// returns ErrDraining), queued jobs are canceled, running jobs halt
// cooperatively at their next iteration boundary, and — when SpoolDir is
// set — each halted job's final checkpoint is spooled to
// SpoolDir/<id>.ckpt so a later submission can resume_from it. Drain
// returns when every job goroutine has exited.
func (s *Server) Drain() []Info {
	s.mu.Lock()
	s.draining = true
	queued := s.queue
	s.queue = nil
	var running []*job
	for _, j := range s.order {
		j.mu.Lock()
		if j.state == StateRunning {
			running = append(running, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()

	for _, j := range queued {
		j.mu.Lock()
		j.state = StateCanceled
		j.finished = time.Now()
		j.append("canceled", nil, "")
		j.mu.Unlock()
		j.cancel()
	}
	for _, j := range running {
		j.cancel()
	}
	s.wg.Wait()

	var drained []Info
	for _, j := range running {
		j.mu.Lock()
		if j.state == StateHalted && j.result != nil && j.result.Final != nil && s.cfg.SpoolDir != "" {
			path := filepath.Join(s.cfg.SpoolDir, j.id+".ckpt")
			if err := checkpoint.WriteFileAtomic(path, j.result.Final); err == nil {
				j.spool = path
			}
		}
		j.mu.Unlock()
		drained = append(drained, j.info())
	}
	return drained
}
