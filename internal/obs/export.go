package obs

import (
	"encoding/json"
	"io"
	"net/http"

	"fftgrad/internal/buildinfo"
)

// Profile is the per-iteration JSON profile document: build identity,
// the clock-offset estimate, the blame ledger with rolling percentiles,
// the recent per-iteration critical paths, and any anomaly captures.
// This is what /jobs/{id}/profile and `trainer -profile-out` serve.
type Profile struct {
	Build struct {
		Version string `json:"version"`
		Go      string `json:"go"`
	} `json:"build"`

	Summary   Summary `json:"summary"`
	OffsetsNs []int64 `json:"offsets_ns"`

	// Blame mirrors Summary.Blame with derived convenience fields: the
	// fraction of all blocked time each rank is responsible for and the
	// rolling per-iteration blame percentiles from the telemetry
	// histograms (NaN-free: 0 when uninstrumented or empty).
	Blame []BlameStanding `json:"blame"`

	Iterations []IterProfile   `json:"iterations"`
	Captures   []CaptureRecord `json:"captures,omitempty"`
}

// BlameStanding is one rank's row in the exported ledger.
type BlameStanding struct {
	Rank        int     `json:"rank"`
	BlamedS     float64 `json:"blamed_s"`
	BlamedFrac  float64 `json:"blamed_frac"`
	BlamedIters int64   `json:"blamed_iters"`
	BlockedS    float64 `json:"blocked_s"`
	P50S        float64 `json:"p50_s"`
	P90S        float64 `json:"p90_s"`
	P99S        float64 `json:"p99_s"`
}

// BuildProfile assembles the full profile document. final=true folds the
// ragged tail (see Summary).
func (p *Profiler) BuildProfile(final bool) Profile {
	var out Profile
	out.Build.Version = buildinfo.Version()
	out.Build.Go = buildinfo.GoVersion()
	if p == nil {
		return out
	}
	out.Summary = p.Summary(final)
	out.OffsetsNs = p.Offsets()
	out.Iterations = p.Profiles(false) // already swept by Summary above
	out.Captures = p.Captures()
	out.Blame = make([]BlameStanding, len(out.Summary.Blame))
	total := float64(out.Summary.TotalBlockedNs)
	for i, e := range out.Summary.Blame {
		st := BlameStanding{
			Rank:        e.Rank,
			BlamedS:     float64(e.BlamedNs) / 1e9,
			BlamedIters: e.BlamedIters,
			BlockedS:    float64(e.BlockedNs) / 1e9,
			P50S:        p.blameQuantile(e.Rank, 0.50),
			P90S:        p.blameQuantile(e.Rank, 0.90),
			P99S:        p.blameQuantile(e.Rank, 0.99),
		}
		if total > 0 {
			st.BlamedFrac = float64(e.BlamedNs) / total
		}
		out.Blame[i] = st
	}
	return out
}

// WriteProfileJSON writes the profile document as indented JSON.
func (p *Profiler) WriteProfileJSON(w io.Writer, final bool) error {
	prof := p.BuildProfile(final)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&prof)
}

// Handler serves the live profile document — mounted at /profile on the
// trainer's metrics mux and /jobs/{id}/profile on the serve mux.
func (p *Profiler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = p.WriteProfileJSON(w, false)
	})
}

// Status is the compact live-status document for /debug/status: build
// identity, the ledger headline, anomaly and trace-loss counts. Kept
// deliberately small — it is the first thing an operator curls.
type Status struct {
	Version string `json:"version"`
	Go      string `json:"go"`

	Ranks           int     `json:"ranks"`
	Iterations      int64   `json:"iterations"`
	TotalBlockedS   float64 `json:"total_blocked_s"`
	TopBlamedRank   int     `json:"top_blamed_rank"`
	TopBlamedFrac   float64 `json:"top_blamed_frac"`
	AnomalyBreaches uint64  `json:"anomaly_breaches"`
	TraceDropped    uint64  `json:"trace_dropped"`
}

// BuildStatus assembles the status document; traceDropped is supplied by
// the caller (the tracer lives a layer up).
func (p *Profiler) BuildStatus(traceDropped uint64) Status {
	st := Status{
		Version:       buildinfo.Version(),
		Go:            buildinfo.GoVersion(),
		TopBlamedRank: -1,
		TraceDropped:  traceDropped,
	}
	if p == nil {
		return st
	}
	s := p.Summary(false)
	st.Ranks = s.Ranks
	st.Iterations = s.Iterations
	st.TotalBlockedS = float64(s.TotalBlockedNs) / 1e9
	st.AnomalyBreaches = s.AnomalyBreaches
	var top int64
	for _, e := range s.Blame {
		if e.BlamedNs > top {
			top = e.BlamedNs
			st.TopBlamedRank = e.Rank
		}
	}
	if s.TotalBlockedNs > 0 {
		st.TopBlamedFrac = float64(top) / float64(s.TotalBlockedNs)
	}
	return st
}

// StatusHandler serves the live Status document; traceDropped reports the
// tracer's lost events (Tracer.DroppedTotal, which a nil tracer answers).
func (p *Profiler) StatusHandler(traceDropped func() uint64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := p.BuildStatus(traceDropped())
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(&st)
	})
}

// blameQuantile reads the rolling blame percentile for one rank (0 when
// uninstrumented or empty) — the profile's and the -top table's.
func (p *Profiler) blameQuantile(rank int, q float64) float64 {
	if p == nil || p.blameHist == nil || rank < 0 || rank >= len(p.blameHist) {
		return 0
	}
	if v := p.blameHist[rank].Quantile(q); v == v { // NaN: empty histogram
		return v
	}
	return 0
}
