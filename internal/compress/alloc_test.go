package compress

import (
	"bytes"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// allocGrad builds a deterministic pseudo-gradient with mixed scales.
func allocGrad(n int) []float32 {
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(math.Sin(float64(i)*0.7) * math.Exp(-float64(i%997)/500))
	}
	return g
}

// roundTripAllocs measures steady-state allocations of one
// AppendCompress + DecompressInto cycle with reused buffers, after
// warming every cache (pools, plans, tuned quantizers) first.
func roundTripAllocs(t *testing.T, c Compressor) float64 {
	t.Helper()
	grad := allocGrad(5000)
	rec := make([]float32, len(grad))
	var msg []byte
	var err error
	for i := 0; i < 3; i++ { // warm pools, plan caches, quantizer tuning
		msg, err = c.AppendCompress(msg[:0], grad)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DecompressInto(rec, msg); err != nil {
			t.Fatal(err)
		}
	}
	// A GC pass during measurement would clear the scratch pools and make
	// the next iteration re-allocate; disable GC for the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(50, func() {
		msg, err = c.AppendCompress(msg[:0], grad)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DecompressInto(rec, msg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestZeroAllocRoundTrip is the PR's acceptance gate: the steady-state
// AppendCompress + DecompressInto round trip must report 0 allocs/op for
// the paper's compressor and the Top-k baseline — with live telemetry
// attached, since production runs instrument every compressor and the
// stage timers must not break the invariant (ObserveSince is pure
// atomics + time.Now). AllocsPerRun pins GOMAXPROCS to 1, so the
// parallel fan-out paths (which do allocate, per goroutine spawned) are
// measured in their serial form — the property asserted here is that
// nothing on the data path allocates.
func TestZeroAllocRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	st := telemetry.NewStageTimer()
	for _, c := range []Compressor{
		NewFFT(0.85), NewDCT(0.85), NewTopK(0.85), FP32{},
	} {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			Instrument(c, st)
			if n := roundTripAllocs(t, c); n != 0 {
				t.Errorf("%s: steady-state round trip allocates %.2f allocs/op, want 0", c.Name(), n)
			}
			if _, ok := c.(Instrumentable); ok && st.Samples(telemetry.StageSelect) == 0 {
				t.Errorf("%s: instrumented round trips recorded no StageSelect samples", c.Name())
			}
		})
	}
}

// TestZeroAllocRoundTripTracingDisabled pins the tracing-off wiring:
// WithSink(nil) must hand back the same un-teed timer, and the round
// trip through it must stay at 0 allocs/op — a disabled tracer costs
// nothing on the data path.
func TestZeroAllocRoundTripTracingDisabled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	st := telemetry.NewStageTimer()
	var tc *trace.Ctx // tracing off: nil ctx, nil sink
	wst := st.WithSink(tc.StageSink())
	if wst != st {
		t.Fatal("WithSink(nil) must return the receiver unchanged")
	}
	c := NewFFT(0.85)
	Instrument(c, wst)
	if n := roundTripAllocs(t, c); n != 0 {
		t.Errorf("tracing-disabled round trip allocates %.2f allocs/op, want 0", n)
	}
}

// TestZeroAllocRoundTripTraced pins the tracing-ON per-iteration cost:
// with a live trace sink teeing every stage observation into the ring,
// the round trip must still be 0 allocs/op — ring appends are pure
// atomics into pre-sized slots, so enabling the tracer changes CPU cost
// only, never the allocation profile.
func TestZeroAllocRoundTripTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	tr := trace.New(1, 1<<14)
	tc := tr.Rank(0)
	st := telemetry.NewStageTimer().WithSink(tc.StageSink())
	for _, c := range []Compressor{NewFFT(0.85), NewTopK(0.85)} {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			Instrument(c, st)
			if n := roundTripAllocs(t, c); n != 0 {
				t.Errorf("%s: traced round trip allocates %.2f allocs/op, want 0", c.Name(), n)
			}
		})
	}
	// The sink must actually have recorded stage spans into the ring.
	var stageSpans int
	for _, e := range tr.Events() {
		switch e.Op {
		case trace.OpConvert, trace.OpTransform, trace.OpSelect, trace.OpPack:
			stageSpans++
		}
	}
	if stageSpans == 0 {
		t.Error("traced round trips recorded no stage spans in the ring")
	}
}

// TestAppendCompressMatchesCompress checks the append contract for the
// deterministic compressors: appending to a non-empty dst keeps its
// prefix, and the appended bytes equal a nil-dst message.
func TestAppendCompressMatchesCompress(t *testing.T) {
	grad := allocGrad(5000)
	for _, c := range []Compressor{NewFFT(0.85), NewDCT(0.85), NewTopK(0.85), FP32{}} {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			want, err := c.AppendCompress(nil, grad)
			if err != nil {
				t.Fatal(err)
			}
			prefix := []byte("prefix")
			got, err := c.AppendCompress(append([]byte(nil), prefix...), grad)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, prefix) {
				t.Fatalf("AppendCompress clobbered the existing dst prefix")
			}
			if !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("appended message differs from the nil-dst message (%d vs %d bytes)",
					len(got)-len(prefix), len(want))
			}
		})
	}
}

// TestTransformOwnsItsState: a warm transform codec's encode +
// AccumulateInto round trip allocates nothing even when the goroutine
// calling it changes every round — as a rank's compress stage and its
// exchange stage take turns on one bucket's codec. The codec's model-size
// buffers are its own, not pooled per P, so a caller on another P finds
// them where the last one left them, and the collections the count makes
// take nothing away. Every round sends the same message.
// The bytes are counted from the memory profile, leaving out what the
// runtime allocates for itself (a sudog to park a goroutine, a new M, a
// cleanup after a collection): a hand-off between goroutines may cost
// that at any commit.
func TestTransformOwnsItsState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	grad := allocGrad(1<<16 + 123)
	sum := make([]float32, len(grad))
	type codec struct {
		c          *Transform
		msg, first []byte
	}
	round := func(k *codec) {
		var err error
		if k.msg, err = k.c.AppendCompress(k.msg[:0], grad); err != nil {
			t.Error(err)
			return
		}
		if k.first == nil {
			k.first = bytes.Clone(k.msg)
		} else if !bytes.Equal(k.msg, k.first) {
			t.Error("a round sent a different message")
		}
		if err := k.c.AccumulateInto(sum, k.msg, 1, 0.5); err != nil {
			t.Error(err)
		}
	}
	var turns [2]chan *codec
	done := make(chan struct{})
	for g := range turns {
		turns[g] = make(chan *codec)
		go func() {
			for k := range turns[g] {
				round(k)
				done <- struct{}{}
			}
		}()
	}
	defer func() {
		for g := range turns {
			close(turns[g])
		}
	}()
	alternate := func(k *codec, rounds int) {
		for r := 0; r < rounds; r++ {
			turns[r%2] <- k
			<-done
		}
	}
	// Warm the codec under test on this goroutine (its state sized, the
	// plans built, the quantizer tuned), and let the runtime settle what
	// parking and waking the two goroutines takes on a second codec.
	warm, spare := &codec{c: NewFFT(0.85)}, &codec{c: NewFFT(0.85)}
	round(warm)
	round(warm)
	alternate(spare, 32)
	const rounds = 40
	before := moduleAllocBytes()
	alternate(warm, rounds)
	if d := moduleAllocBytes() - before; d != 0 {
		t.Errorf("%d round trips from alternating goroutines allocated %d B, want 0", rounds, d)
	}
}

// TestTransformRoundTripSurvivesCollections: a warm transform codec's
// round trip allocates nothing right after a collection either. Nothing on
// its path is borrowed from a pool that a collection empties: the DCT's
// plan works in the mirrored spectrum and signal its codec hands it.
func TestTransformRoundTripSurvivesCollections(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	grad := allocGrad(1<<14 + 123)
	rec := make([]float32, len(grad))
	for _, c := range []*Transform{NewFFT(0.85), NewDCT(0.85)} {
		var msg []byte
		round := func() {
			var err error
			if msg, err = c.AppendCompress(msg[:0], grad); err != nil {
				t.Fatal(err)
			}
			if err := c.DecompressInto(rec, msg); err != nil {
				t.Fatal(err)
			}
		}
		round()
		var d int64
		for r := 0; r < 5; r++ {
			before := moduleAllocBytes() // two collections, then the count
			round()
			d += moduleAllocBytes() - before
		}
		if d != 0 {
			t.Errorf("%s: 5 round trips, each after a collection, allocated %d B, want 0", c.Name(), d)
		}
	}
}

// moduleAllocBytes returns the bytes the memory profile has seen this
// module's code allocate so far: a record counts when a frame under
// fftgrad/ is on its stack and the allocating function is not in package
// runtime (which parks goroutines and starts Ms on the module's behalf).
// Its own record buffer is left out. Two collections publish the profile
// up to the call.
func moduleAllocBytes() int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		panic("memory profile grew by more than 64 records")
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "runtime.") || strings.HasSuffix(f.Function, ".moduleAllocBytes") {
			continue
		}
		for more && !strings.HasPrefix(f.Function, "fftgrad/") {
			f, more = frames.Next()
		}
		if strings.HasPrefix(f.Function, "fftgrad/") {
			total += r.AllocBytes
		}
	}
	return total
}
