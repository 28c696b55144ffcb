package compress

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestSharedWorkspaces: B transform codecs joined by ShareWork, driven the
// way a bucketed rank's pipeline drives them — AppendCompress(b+1) on one
// goroutine beside AccumulateInto(b) on another — send the messages and
// leave the sums that B codecs with workspaces of their own do, bit for
// bit, and between them allocate exactly two spectra and two work arrays
// whatever B is. Every round scales the gradients 4×, so each bucket's
// quantizer re-tunes, and the last bucket is shorter than the rest, as a
// rank's last bucket is. Under -race the test is the gate on the sharing's
// locking.
func TestSharedWorkspaces(t *testing.T) {
	const n, rounds = 20000, 3 // N = 2^15 for every bucket but the last
	for _, nb := range []int{2, 8} {
		t.Run(fmt.Sprint(nb), func(t *testing.T) {
			// grads[r][b] is bucket b's gradient in round r.
			grads := make([][][]float32, rounds)
			for r := range grads {
				grads[r] = make([][]float32, nb)
				for b := range grads[r] {
					size := n
					if b == nb-1 {
						size = n/2 + 7
					}
					g := allocGrad(size)
					for i := range g {
						g[i] *= float32(b+1) * float32(math.Pow(4, float64(r)))
					}
					grads[r][b] = g
				}
			}
			type result struct {
				msgs [][]byte
				sums [][]float32
			}
			newResult := func() *result {
				r := &result{msgs: make([][]byte, nb), sums: make([][]float32, nb)}
				for b := range r.sums {
					r.sums[b] = make([]float32, len(grads[0][b]))
				}
				return r
			}
			compress := func(c Compressor, round int, r *result, b int) {
				var err error
				if r.msgs[b], err = c.AppendCompress(r.msgs[b][:0], grads[round][b]); err != nil {
					t.Error(err)
				}
			}
			// Two folds of the bucket's message, the second scaled, as a
			// two-contribution average is.
			fold := func(c Compressor, r *result, b int) {
				clear(r.sums[b])
				for _, f := range [][2]float32{{1, 1}, {0.5, 1 / 1.5}} {
					if err := AccumulateInto(c, r.sums[b], r.msgs[b], f[0], f[1]); err != nil {
						t.Error(err)
					}
				}
			}
			codecs := func() []Compressor {
				cs := make([]Compressor, nb)
				for b := range cs {
					cs[b] = NewFFT(0.85)
				}
				return cs
			}

			// The reference: a workspace per codec, one call at a time.
			private, want := codecs(), make([]*result, rounds)
			for r := range want {
				want[r] = newResult()
				for b := range private {
					compress(private[b], r, want[r], b)
					fold(private[b], want[r], b)
				}
			}

			shared := codecs()
			ShareWork(shared)
			got := make([]*result, rounds)
			for r := range got {
				got[r] = newResult()
			}
			sites := func() map[allocSite]runtime.MemProfileRecord { return nil }
			if !raceEnabled {
				defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
				runtime.MemProfileRate = 1
				sites = profileSites
			}
			before := sites()
			for r, res := range got {
				compress(shared[0], r, res, 0)
				for b := range shared {
					var wg sync.WaitGroup
					if b+1 < nb {
						wg.Add(1)
						go func() {
							defer wg.Done()
							compress(shared[b+1], r, res, b+1)
						}()
					}
					fold(shared[b], res, b)
					wg.Wait()
				}
			}
			after := sites()

			for r := range got {
				for b := range got[r].msgs {
					if !bytes.Equal(got[r].msgs[b], want[r].msgs[b]) {
						t.Errorf("round %d bucket %d: a shared workspace sent a different message", r, b)
					}
					for i, v := range got[r].sums[b] {
						if math.Float32bits(v) != math.Float32bits(want[r].sums[b][i]) {
							t.Errorf("round %d bucket %d: sum[%d] = %v through shared workspaces, %v through private ones",
								r, b, i, v, want[r].sums[b][i])
							break
						}
					}
				}
			}
			if raceEnabled {
				return
			}
			// Model-size objects, at least a quarter of a spectrum or a work
			// array at N = 2^15 (8N + 16 B each), by the function that sized
			// them. The encode workspace's spectrum and work array are both
			// sized in analyze; the decode workspace's spectrum in
			// synthesize, its work array in inverse.
			const sp = "fftgrad/internal/sparsify.(*Transform)."
			wantBy := map[string]int64{sp + "analyze": 2, sp + "synthesize": 1, sp + "inverse": 1}
			by := map[string]int64{}
			for site, a := range after {
				objs := a.AllocObjects - before[site].AllocObjects
				if fn := sizedBy(a); objs > 0 && site.size >= 2<<15 && !strings.HasSuffix(fn, ".profileSites") {
					by[fn] += objs
				}
			}
			if !maps.Equal(by, wantBy) {
				t.Errorf("%d codecs sharing workspaces allocated model-size objects %v, want %v", nb, by, wantBy)
			}
		})
	}
}

// allocSite is what the memory profile keeps a record for: a stack and an
// object size.
type allocSite struct {
	stack [32]uintptr
	size  int64
}

// profileSites returns the memory profile's records up to the call, by
// allocation site. Two collections publish them. (Its own record buffer
// and map are allocations of profileSites.)
func profileSites() map[allocSite]runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		panic("memory profile grew by more than 64 records")
	}
	sites := make(map[allocSite]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		if r.AllocObjects > 0 {
			sites[allocSite{r.Stack0, r.AllocBytes / r.AllocObjects}] = r
		}
	}
	return sites
}

// sizedBy names the function that asked for r's objects: the first on its
// stack outside package runtime and sparsify's grow.
func sizedBy(r runtime.MemProfileRecord) string {
	frames := runtime.CallersFrames(r.Stack())
	for {
		f, more := frames.Next()
		fn := f.Function
		if !more || !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "fftgrad/internal/sparsify.grow[") {
			return fn
		}
	}
}
