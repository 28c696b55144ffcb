package collective

import (
	"math"
	"math/bits"

	"fftgrad/internal/netsim"
)

// Fabric prices the base collectives (dist.Fabric is this type);
// netsim.Profile and netsim.Hierarchical satisfy it.
type Fabric interface {
	// Allgather returns the seconds to allgather m bytes per rank across
	// n ranks.
	Allgather(n, m int) float64
	// Broadcast returns the seconds to broadcast m bytes to n ranks.
	Broadcast(n, m int) float64
}

// LinkFabric additionally prices a single link, which the tree model
// needs for its per-round terms. netsim.Profile satisfies it.
type LinkFabric interface {
	Fabric
	PointToPoint(m int) float64
}

// ModelAllgather prices one exchange of m compressed bytes per rank
// across n ranks under the configured strategy:
//
//	ring:  (n−1) steps of m bytes — netsim's flat allgather.
//	hier:  intra allgather of g members + inter allgather of the G=⌈n/g⌉
//	       group blocks (g·m bytes each) — the two netsim.Hierarchical
//	       stages. Bandwidth volume matches the ring ((g−1)m + (G−1)gm ≈
//	       (n−1)m) but only g+G−2 latency terms are paid instead of n−1.
//	tree:  ⌈log2 n⌉ gather rounds (round k moves 2^k·m) plus ⌈log2 n⌉
//	       broadcast rounds of the full n·m set; needs a LinkFabric and
//	       falls back to the ring price otherwise.
func (c Config) ModelAllgather(f Fabric, n, m int) float64 {
	switch c.Strategy {
	case Hier:
		g := c.GroupSize
		if g <= 0 {
			g = 4
		}
		if g > n {
			g = n
		}
		groups := (n + g - 1) / g
		return f.Allgather(g, m) + f.Allgather(groups, m*g)
	case Tree:
		lf, ok := f.(LinkFabric)
		if !ok {
			return f.Allgather(n, m)
		}
		t := 0.0
		for k := 0; 1<<k < n; k++ {
			t += lf.PointToPoint((1 << k) * m)
		}
		t += float64(bits.Len(uint(n-1))) * lf.PointToPoint(n*m)
		return t
	case Gossip:
		// One decentralized round: two neighbor exchanges of m bytes,
		// independent of n. Not comparable to an allgather's information
		// dissemination (consensus takes O(n) rounds on a ring); the
		// price models wire time per training iteration, which is what
		// the Sec. 3.3 accounting needs.
		if lf, ok := f.(LinkFabric); ok {
			return 2 * lf.PointToPoint(m)
		}
		return f.Allgather(2, m)
	default:
		return f.Allgather(n, m)
	}
}

// ModelBroadcast prices a broadcast of m bytes to n ranks under the
// strategy. The hier and ring schedules both resolve to the fabric's own
// (binomial) broadcast term; the tree schedule prices its explicit
// per-round links when the fabric exposes them.
func (c Config) ModelBroadcast(f Fabric, n, m int) float64 {
	if c.Strategy == Tree {
		if lf, ok := f.(LinkFabric); ok {
			return float64(bits.Len(uint(n-1))) * lf.PointToPoint(m)
		}
	}
	return f.Broadcast(n, m)
}

// KMin returns the minimum compression ratio k at which the strategy's
// compressed allgather of an mBytes gradient beats the lossless FP32
// ring allreduce across n ranks on profile pr — the generalized Sec. 3.3
// crossover, found by bisection on the monotone time-vs-ratio curve.
// Returns 1 when even uncompressed allgather wins, +Inf when no finite
// ratio can win (the latency floor exceeds the baseline).
func (c Config) KMin(pr netsim.Profile, n, mBytes int) float64 {
	base := pr.RingAllreduce(n, mBytes)
	at := func(k float64) float64 {
		return c.ModelAllgather(pr, n, int(float64(mBytes)/k))
	}
	return bisectRatio(at, base)
}

// bisectRatio finds the smallest k ≥ 1 with at(k) ≤ base.
func bisectRatio(at func(float64) float64, base float64) float64 {
	if at(1) <= base {
		return 1
	}
	lo, hi := 1.0, 2.0
	for at(hi) > base {
		lo, hi = hi, hi*2
		if hi > 1e12 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if at(mid) > base {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
