package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Parent indexes the
// same track's spans; -1 marks a root.
type span struct {
	Name       string
	Iter       int
	Parent     int
	Start, End int64 // ns since the recorder's epoch
}

// track holds one rank's spans in memory. Spans of a rank can come from
// more than one goroutine (the bucketed pipeline compresses bucket b+1
// while bucket b is in flight; the cluster receiver verifies frames), so
// appends take a lock; it is uncontended on the monolithic path.
type track struct {
	mu    sync.Mutex
	epoch time.Time
	iter  atomic.Int64 // iteration attributed to spans begun without a parent
	spans []span
}

func newTrack(epoch time.Time, capacity int) *track {
	t := &track{epoch: epoch, spans: make([]span, 0, capacity)}
	t.iter.Store(-1)
	return t
}

// begin opens a span and returns its id for end and for children.
func (t *track) begin(name string, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Iter: int(t.iter.Load()), Parent: parent, Start: now, End: now})
	t.mu.Unlock()
	return id
}

func (t *track) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (their union, so overlapping
// children are not subtracted twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := int64(0), s.Start
		for _, c := range iv {
			lo, end := c[0], c[1]
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[i] -= covered
	}
	return out
}

// durations returns each span's full duration.
func durations(spans []span) []int64 {
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
	}
	return out
}

// layerPerIter sums ns (per span: selfTimes or durations) of the named
// spans per iteration, in ms, for iterations in [from, to). Iterations
// without such a span read 0.
func layerPerIter(spans []span, ns []int64, from, to int, names ...string) []float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make([]float64, to-from)
	for i, s := range spans {
		if want[s.Name] && s.Iter >= from && s.Iter < to {
			out[s.Iter-from] += float64(ns[i]) / 1e6
		}
	}
	return out
}

// countPerIter counts the named spans per iteration in [from, to).
func countPerIter(spans []span, from, to int, name string) []float64 {
	out := make([]float64, to-from)
	for _, s := range spans {
		if s.Name == name && s.Iter >= from && s.Iter < to {
			out[s.Iter-from]++
		}
	}
	return out
}

// writeChromeTrace writes every rank's spans as Chrome trace_event JSON
// (complete events; load in chrome://tracing or Perfetto).
func writeChromeTrace(path string, tracks []*track) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	for rank, t := range tracks {
		for id, s := range t.spans {
			if !first {
				fmt.Fprint(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"iter":%d}}`,
				s.Name, rank, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, id, s.Parent, s.Iter)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
