package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"time"
)

// splitName separates a metric name from its optional Prometheus label
// suffix: `foo{bar="x"}` → ("foo", `{bar="x"}`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// labelJoin merges a metric's registered labels with an extra label pair
// (used for histogram `le` labels).
func labelJoin(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4). Metrics sharing a base name (same metric,
// different label sets) get one HELP/TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.WritePrometheusLabeled(w, "")
}

// WritePrometheusLabeled is WritePrometheus with an extra label pair
// (e.g. `job="j-42"`) merged into every sample's label set. The job
// service uses it to expose many per-job registries on one /metrics
// endpoint with tenant-distinguishable series.
func (r *Registry) WritePrometheusLabeled(w io.Writer, extra string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	relabel := func(labels string) string {
		if extra == "" {
			return labels
		}
		return labelJoin(labels, extra)
	}
	seen := make(map[string]bool)
	for _, name := range r.order {
		base, labels := splitName(name)
		m := r.byName[name]
		typ, help := "gauge", ""
		switch mm := m.(type) {
		case *Counter:
			typ, help = "counter", mm.help
		case *Gauge:
			help = mm.help
		case *gaugeFunc:
			help = mm.help
		case *Histogram:
			typ, help = "histogram", mm.help
		}
		if !seen[base] {
			seen[base] = true
			if help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, typ); err != nil {
				return err
			}
		}
		labels = relabel(labels)
		switch mm := m.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", base, labels, mm.Total()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", base, labels, formatFloat(mm.Value())); err != nil {
				return err
			}
		case *gaugeFunc:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", base, labels, formatFloat(mm.fn())); err != nil {
				return err
			}
		case *Histogram:
			cum := uint64(0)
			for i, b := range mm.bounds {
				cum += mm.buckets[i].Load()
				le := labelJoin(labels, fmt.Sprintf("le=%q", formatFloat(b)))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, le, cum); err != nil {
					return err
				}
			}
			cum += mm.buckets[len(mm.bounds)].Load()
			le := labelJoin(labels, `le="+Inf"`)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, le, cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
				base, labels, formatFloat(mm.Sum()), base, labels, mm.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a float the way Prometheus expects (no exponent
// for integral values in the common range, +Inf spelled out).
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteJSON renders the registry snapshot as a flat JSON object, one
// entry per metric (histograms as _count/_sum pairs), keys sorted.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Handler returns an http.Handler serving the registry:
//
//	GET /metrics       Prometheus text format
//	GET /metrics.json  flat JSON snapshot
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	return mux
}

// Probes mounts the process's two health probes on mux, the one copy
// the trainer and the job service share:
//
//	GET /healthz  liveness: 200 "ok" while the process serves
//	GET /readyz   readiness: 200 "ok" while ready reports true, else 503
//	              "draining", so orchestrators stop routing work to a
//	              process that is shutting down
func Probes(mux *http.ServeMux, ready func() bool) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, "draining\n")
			return
		}
		_, _ = io.WriteString(w, "ok\n")
	})
}

// ServeHandler starts an HTTP endpoint on addr (e.g. ":9090") serving a
// caller-composed handler — the trainer mounts /trace and the optional
// pprof handlers on the same mux as the registry endpoints. It returns
// the bound address (useful with ":0") and a shutdown function.
//
// The returned shutdown drains gracefully: it stops accepting new
// connections and gives in-flight requests (a scrape mid-render, a
// flight-recorder dump download) up to two seconds to finish before
// closing hard, so a trainer exiting on SIGTERM no longer truncates the
// final response on the wire.
func ServeHandler(addr string, h http.Handler) (bound string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	shutdown = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return srv.Close()
		}
		return nil
	}
	return ln.Addr().String(), shutdown, nil
}
