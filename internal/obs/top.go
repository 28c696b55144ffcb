package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// The `trainer -top` terminal view: a blame/stage table redrawn in place
// while training runs. Rendering is plain ANSI — cursor-up plus
// erase-line — so it works in any terminal without a TUI dependency and
// degrades to an appending log when piped to a file.

// RenderTop writes one frame of the blame/stage table and returns the
// number of lines written (so the caller can cursor back up before the
// next frame).
func (p *Profiler) RenderTop(w io.Writer) int {
	s := p.Summary(false)
	lines := 0
	pr := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\x1b[K\n", args...)
		lines++
	}
	critTotal := s.ComputeNs + s.CompressNs + s.CommProperNs + s.CommWaitNs +
		s.DecompressNs + s.UpdateNs + s.SyncNs
	pr("obs: %d ranks · %d iterations · blocked %.3fs · anomalies %d",
		s.Ranks, s.Iterations, float64(s.TotalBlockedNs)/1e9, s.AnomalyBreaches)
	if critTotal > 0 {
		share := func(ns int64) float64 { return 100 * float64(ns) / float64(critTotal) }
		pr("critical path: compute %.1f%% · compress %.1f%% · comm %.1f%% · comm-wait %.1f%% · decompress %.1f%% · update %.1f%% · sync %.1f%%",
			share(s.ComputeNs), share(s.CompressNs), share(s.CommProperNs), share(s.CommWaitNs),
			share(s.DecompressNs), share(s.UpdateNs), share(s.SyncNs))
	}
	pr("%-5s %10s %7s %7s %10s %9s %9s", "rank", "blamed(s)", "blame%", "iters", "blocked(s)", "p50(ms)", "p99(ms)")
	for _, e := range s.Blame {
		frac := 0.0
		if s.TotalBlockedNs > 0 {
			frac = 100 * float64(e.BlamedNs) / float64(s.TotalBlockedNs)
		}
		bar := blameBar(frac)
		pr("%-5d %10.3f %6.1f%% %7d %10.3f %9.2f %9.2f  %s",
			e.Rank, float64(e.BlamedNs)/1e9, frac, e.BlamedIters,
			float64(e.BlockedNs)/1e9,
			1e3*p.blameQuantile(e.Rank, 0.50), 1e3*p.blameQuantile(e.Rank, 0.99), bar)
	}
	return lines
}

// blameBar is a 10-cell bar for the blame share column.
func blameBar(pct float64) string {
	cells := int(pct/10 + 0.5)
	if cells > 10 {
		cells = 10
	}
	if cells < 0 {
		cells = 0
	}
	return strings.Repeat("█", cells) + strings.Repeat("·", 10-cells)
}

// Top redraws the table every 500 ms until stop closes, then renders a
// final frame. The table is repainted in place: after each frame the
// cursor moves back up over the lines just written.
func (p *Profiler) Top(w io.Writer, stop <-chan struct{}) {
	if p == nil {
		return
	}
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	prev := 0
	for {
		if prev > 0 {
			fmt.Fprintf(w, "\x1b[%dA", prev) // cursor up over the old frame
		}
		prev = p.RenderTop(w)
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}
