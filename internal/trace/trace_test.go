package trace

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock replaces a tracer's monotonic source with a deterministic
// counter so tests control every timestamp.
func fakeClock(t *Tracer) *atomic.Int64 {
	var now atomic.Int64
	t.nowNanos = func() int64 { return now.Load() }
	return &now
}

func TestNewRounding(t *testing.T) {
	for _, c := range []struct{ ask, want int }{
		{0, 8192}, {-5, 8192}, {1, 1}, {2, 2}, {3, 4}, {100, 128}, {8192, 8192},
	} {
		tr := New(2, c.ask)
		if got := tr.rings[0].Cap(); got != c.want {
			t.Errorf("New(2, %d): capacity %d, want %d", c.ask, got, c.want)
		}
	}
	if tr := New(0, 8); tr.Ranks() != 1 {
		t.Errorf("New(0, 8): ranks %d, want 1", tr.Ranks())
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Ranks() != 0 || tr.Rank(0) != nil || tr.Events() != nil {
		t.Fatal("nil tracer methods must be no-ops")
	}
	var c *Ctx
	c.SetIter(3)
	c.Instant(OpNack, 1)
	c.SpanSince(OpCompute, 1, time.Now())
	c.SpanTimed(OpCompute, 1, time.Now(), time.Millisecond)
	if c.StageSink() != nil {
		t.Fatal("nil Ctx must report a nil sink")
	}
	live := New(2, 8)
	if live.Rank(-1) != nil || live.Rank(2) != nil {
		t.Fatal("out-of-range ranks must return nil")
	}
}

// TestWraparoundOrdering overfills a tiny ring and checks that exactly
// the newest capacity-many events survive, exported in start order.
func TestWraparoundOrdering(t *testing.T) {
	tr := New(1, 4)
	now := fakeClock(tr)
	c := tr.Rank(0)
	const total = 11
	for i := 0; i < total; i++ {
		now.Store(int64(i) * 100)
		c.SetIter(uint64(i))
		c.Instant(OpNack, int64(i))
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events after wraparound, want 4", len(ev))
	}
	for i, e := range ev {
		wantIdx := total - 4 + i
		if e.Arg != int64(wantIdx) || e.Start != int64(wantIdx)*100 || e.Seq != uint64(wantIdx) {
			t.Errorf("event %d = %+v, want arg/seq %d start %d", i, e, wantIdx, wantIdx*100)
		}
		if i > 0 && ev[i-1].Start > e.Start {
			t.Errorf("events out of order at %d: %d > %d", i, ev[i-1].Start, e.Start)
		}
	}
}

// TestWraparoundConcurrentReader laps a tiny ring thousands of times
// from one writer while a reader snapshots continuously: the overwrite
// path must never surface a half-rewritten event. Every append uses
// Start == Arg == int64(Seq), so a torn read shows up as a mismatch.
func TestWraparoundConcurrentReader(t *testing.T) {
	tr := New(1, 64)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range tr.Events() {
				if e.Start != e.Arg || e.Arg != int64(e.Seq) {
					t.Errorf("torn event leaked: %+v", e)
					return
				}
			}
		}
	}()
	r := &tr.rings[0]
	for v := int64(0); v < 10000; v++ {
		r.append(OpNack, uint64(v), v, v, 0)
	}
	close(stop)
	<-readerDone
	ev := tr.Events()
	if len(ev) != 64 {
		t.Fatalf("got %d events, want 64", len(ev))
	}
	if ev[len(ev)-1].Arg != 9999 {
		t.Fatalf("newest event arg %d, want 9999", ev[len(ev)-1].Arg)
	}
}

// TestConcurrentAppends hammers shared rings from several writers while
// a reader snapshots continuously. The rings are sized so no slot index
// is reused (writer-writer slot collisions are out of scope — sized
// rings make a full-lap lead during one append unreachable in practice),
// leaving the seqlock's reader-vs-writer guarantee as the thing under
// test. Run under -race for the full memory-model check.
func TestConcurrentAppends(t *testing.T) {
	tr := New(2, 8192)
	var stamp atomic.Int64
	tr.nowNanos = func() int64 { return stamp.Load() }

	const writers = 4
	const perWriter = 2000
	var writerWg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})

	go func() { // concurrent snapshotting reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range tr.Events() {
				// OpNack events come from raw appends with
				// Start == Arg == Seq; OpResend events come through the
				// public API, where the shared fake clock races so only
				// the Arg/Seq pair is checkable.
				if e.Arg != int64(e.Seq) || (e.Op == OpNack && e.Start != e.Arg) {
					t.Errorf("torn event leaked: %+v", e)
					return
				}
			}
		}
	}()

	// Raw ring appends, with Start == Arg == Seq by construction.
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			r := &tr.rings[w%2]
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				r.append(OpNack, uint64(v), v, v, 0)
			}
		}(w)
	}
	// Also drive the public Ctx API concurrently on both tracks,
	// preserving the invariant via the shared fake clock: each write
	// stamps the clock to v, then records with seq == arg == v.
	for rank := 0; rank < 2; rank++ {
		writerWg.Add(1)
		go func(rank int) {
			defer writerWg.Done()
			c := tr.Rank(rank)
			for i := 0; i < perWriter; i++ {
				v := int64(rank)*perWriter*writers*2 + int64(i)
				stamp.Store(v)
				c.SetIter(uint64(v))
				c.Instant(OpResend, v)
			}
		}(rank)
	}

	done := make(chan struct{})
	go func() { writerWg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent append test wedged")
	}
	close(stop)
	<-readerDone
	if n := len(tr.Events()); n == 0 {
		t.Fatal("no events survived the storm")
	}
}

// TestAppendZeroAlloc pins the record path at zero allocations per
// event — the property that lets tracing stay on in production.
func TestAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	tr := New(1, 64)
	c := tr.Rank(0)
	sink := c.StageSink()
	start := time.Now()
	if n := testing.AllocsPerRun(100, func() {
		c.Instant(OpNack, 7)
	}); n != 0 {
		t.Errorf("Instant allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		c.SpanSince(OpCompute, 7, start)
	}); n != 0 {
		t.Errorf("SpanSince allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		c.SpanTimed(OpCompress, 7, start, time.Millisecond)
	}); n != 0 {
		t.Errorf("SpanTimed allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sink.StageSpan(1, 7, start, time.Millisecond)
	}); n != 0 {
		t.Errorf("StageSpan allocates %.1f/op, want 0", n)
	}
}

func TestOpNamesComplete(t *testing.T) {
	for op := OpNone; op < numOps; op++ {
		if op != OpNone && (op.String() == "" || op.String() == "none") {
			t.Errorf("op %d has no name", op)
		}
		if op.Cat() == "" {
			t.Errorf("op %d (%s) has no category", op, op)
		}
	}
	if Op(200).String() != "unknown" || Op(200).Cat() != "unknown" {
		t.Error("out-of-range op must stringify as unknown")
	}
}
