package cfft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Plans must be safe for concurrent use: many goroutines transforming
// different buffers through one shared plan must all get the same answers
// as a serial run. (The sparsifier caches one plan per length and the BSP
// workers all hit it.)
func TestPlanConcurrentUse(t *testing.T) {
	n := 1 << 12
	p := NewPlan(n)
	const workers = 8
	inputs := make([][]complex128, workers)
	want := make([][]complex128, workers)
	for w := 0; w < workers; w++ {
		inputs[w] = randComplex(n, int64(w))
		want[w] = make([]complex128, n)
		p.Forward(want[w], inputs[w])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got := make([]complex128, n)
				p.Forward(got, inputs[w])
				for i := range got {
					if cmplx.Abs(got[i]-want[w][i]) > 1e-12 {
						t.Errorf("worker %d rep %d bin %d diverged", w, rep, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestRealPlanConcurrentUse(t *testing.T) {
	n := 1 << 10
	rp := NewRealPlan(n)
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			x := make([]float64, n)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			spec := make([]complex128, rp.SpectrumLen())
			back := make([]float64, n)
			for rep := 0; rep < 20; rep++ {
				rp.Forward(spec, x)
				rp.Inverse(back, spec)
				for i := range x {
					if math.Abs(back[i]-x[i]) > 1e-9 {
						t.Errorf("seed %d rep %d: round trip broke", seed, rep)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// Time-shift property: shifting the input rotates each spectrum bin by
// e^{-2πik·s/n} without changing magnitudes — a deeper structural check
// than the round-trip tests.
func TestShiftTheorem(t *testing.T) {
	n := 256
	shift := 17
	x := randComplex(n, 99)
	shifted := make([]complex128, n)
	for i := range x {
		shifted[i] = x[(i+shift)%n]
	}
	X := fft(x)
	S := fft(shifted)
	for k := 0; k < n; k++ {
		if math.Abs(cmplx.Abs(X[k])-cmplx.Abs(S[k])) > 1e-9 {
			t.Fatalf("bin %d magnitude changed under shift", k)
		}
		ang := 2 * math.Pi * float64(k) * float64(shift) / float64(n)
		rot := complex(math.Cos(ang), math.Sin(ang))
		if cmplx.Abs(S[k]-X[k]*rot) > 1e-9*(1+cmplx.Abs(X[k])) {
			t.Fatalf("bin %d phase rotation wrong", k)
		}
	}
}

// TestPlanBuiltOnceOnRace: goroutines that meet a new length together —
// every rank at its first encode — get one plan between them, and build
// it once: the race allocates less than 1.5 plans' worth.
func TestPlanBuiltOnceOnRace(t *testing.T) {
	n := 0
	for log := 16; log < 24; log++ {
		if realPlans.slots[log].Load() == nil && plans.slots[log-1].Load() == nil {
			n = 1 << log
			break
		}
	}
	if n == 0 {
		t.Skip("every candidate length already has a plan")
	}
	alloc := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const racers = 8
	got := make([]*RealPlan, racers)
	raced := alloc(func() {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = RealPlanFor(n)
			}()
		}
		close(start)
		wg.Wait()
	})
	for g, p := range got {
		if p != got[0] {
			t.Fatalf("racer %d got a different plan", g)
		}
	}
	// One plan's worth: the complex half plan and the real plan over it
	// (NewRealPlan takes the now cached half plan).
	one := alloc(func() { NewPlan(n / 2) }) + alloc(func() { NewRealPlan(n) })
	if raced >= one*3/2 {
		t.Errorf("%d racers allocated %d B building a %d-point real plan, want < 1.5 × %d", racers, raced, n, one)
	}
}
