package topk

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// sameRank compares two selection results, NaN matching NaN.
func sameRank(a, b float64) bool { return a == b || (a != a && b != b) }

// TestSelectionLinearOnTiesAndNaN pins the three input shapes that used
// to send quickselect quadratic — every element equal to the pivot landed
// on one side of the partition — at a size where quadratic is minutes.
func TestSelectionLinearOnTiesAndNaN(t *testing.T) {
	const n = 1 << 20
	equal := make([]float64, n)
	nans := make([]float64, n)
	dead := make([]float64, n) // a ReLU-dead gradient: 90% exact zeros
	r := rand.New(rand.NewSource(7))
	for i := range equal {
		equal[i] = 2.5
		nans[i] = math.NaN()
		if r.Intn(10) == 0 {
			dead[i] = math.Abs(r.NormFloat64())
		}
	}
	cases := []struct {
		name   string
		x      []float64
		k      int
		sel    func([]float64, int) float64
		finite bool
	}{
		{"all-equal/quickselect", equal, n / 2, KthLargest, true},
		{"all-equal/bucket", equal, n / 2, KthLargestBucket, true},
		{"all-NaN/quickselect", nans, n / 2, KthLargest, false},
		{"all-NaN/bucket", nans, n / 2, KthLargestBucket, false},
		{"90%-zero k=15%/quickselect", dead, n * 15 / 100, KthLargest, true},
		{"90%-zero k=15%/bucket", dead, n * 15 / 100, KthLargestBucket, true},
	}
	for _, c := range cases {
		start := time.Now()
		got := c.sel(c.x, c.k)
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: n=%d took %v, want linear time (< 1s)", c.name, n, d)
		}
		if c.finite {
			if want := KthLargestSort(c.x, c.k); got != want {
				t.Errorf("%s: %g, sort says %g", c.name, got, want)
			}
		} else if got == got {
			t.Errorf("%s: %g, want NaN", c.name, got)
		}
	}
}

// TestNaNRanksLowest: with m NaNs in the input, the k-th largest is a
// number for k <= n-m and NaN beyond — sort.Float64s' order, on every
// selector, below and above the bucket strategy's small-input cutoff.
func TestNaNRanksLowest(t *testing.T) {
	for _, n := range []int{9, 5000, 60000} {
		r := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		m := 0
		for i := range x {
			x[i] = float64(r.Intn(50)) - 25 // ties too
			// x[0]: the range scan must not be poisoned by a leading NaN.
			if i == 0 || r.Intn(8) == 0 {
				x[i] = math.NaN()
				m++
			}
		}
		for _, k := range []int{1, (n - m) / 2, n - m - 1, n - m, n - m + 1, n} {
			want := KthLargestSort(x, k)
			if (want != want) != (k > n-m) {
				t.Fatalf("reference: n=%d m=%d k=%d gives %g", n, m, k, want)
			}
			if got := KthLargest(x, k); !sameRank(got, want) {
				t.Errorf("quickselect n=%d k=%d: %g want %g", n, k, got, want)
			}
			if got := KthLargestBucket(x, k); !sameRank(got, want) {
				t.Errorf("bucket n=%d k=%d: %g want %g", n, k, got, want)
			}
		}
	}
}
