package compress

import (
	"testing"
	"time"

	"fftgrad/internal/telemetry"
)

// BenchmarkCodecStages is the one-command stage split of the FFT codec at
// the repository benchmark's wide_fft shape (a 476,032-float gradient,
// θ = 0.85): one op is one encode and one decode, reported as their own
// ns/op next to the four Sec. 3.3 stage terms the codec's StageTimer saw
// over both (Tm convert, Tf transform, Ts select, Tp pack), and its
// allocations (0 in steady state). Run it with -cpu 1,2 (make bench
// does): the kernels split over the pool at 2.
func BenchmarkCodecStages(b *testing.B) {
	g := smoothGrad(476032, 1)
	c := NewFFT(0.85)
	st := telemetry.NewStageTimer()
	c.Instrument(st)
	msg, err := c.AppendCompress(nil, g)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float32, len(g))
	if err := c.DecompressInto(dst, msg); err != nil { // warm plans and pools
		b.Fatal(err)
	}
	var base [telemetry.NumStages]float64
	for s := range base {
		base[s] = st.TotalSeconds(telemetry.Stage(s))
	}
	var enc, dec time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if msg, err = c.AppendCompress(msg[:0], g); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if err := c.DecompressInto(dst, msg); err != nil {
			b.Fatal(err)
		}
		enc += t1.Sub(t0)
		dec += time.Since(t1)
	}
	n := float64(b.N)
	b.ReportMetric(float64(enc.Nanoseconds())/n, "encode-ns/op")
	b.ReportMetric(float64(dec.Nanoseconds())/n, "decode-ns/op")
	for _, s := range []telemetry.Stage{telemetry.StageConvert, telemetry.StageTransform, telemetry.StageSelect, telemetry.StagePack} {
		b.ReportMetric((st.TotalSeconds(s)-base[s])*1e9/n, s.String()+"-ns/op")
	}
}
