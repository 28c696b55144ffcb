package collective

import (
	"math/bits"
	"time"

	"fftgrad/internal/trace"
)

// treeAllgather gathers every rank's frame up a binomial tree rooted at
// rank 0 (⌈log2 p⌉ rounds; the sender at round k is every rank whose
// lowest set bit is bit k), then broadcasts the assembled set back down
// the same tree. 2⌈log2 p⌉ rounds total instead of the ring's 2(p−1) —
// the latency winner when compression has made the messages small.
func (e *Exchanger) treeAllgather(data []byte) [][]byte {
	cm := e.cm
	p := cm.P()
	rank := cm.RankID()
	r := bits.Len(uint(p - 1))
	tc := cm.Trace()

	// Gather. A receiver at round k covers ranks [v, v+2^k) and absorbs
	// its partner's buffer covering [v+2^k, v+2^(k+1)) ∩ [0, p), so the
	// concatenation stays in rank order. The buffer is double-buffered
	// by call parity: the root's gather buffer is what every rank's
	// previous result aliases, and the root starts rewriting it before
	// the next call's first barrier.
	var tb time.Time
	if tc != nil {
		tb = time.Now()
	}
	buf := appendFrame(e.treeBuf[e.calls&1][:0], data)
	sent := false
	for k := 0; k < r; k++ {
		bit := 1 << k
		if !sent && rank&bit != 0 {
			cm.Post(buf)
			cm.AccountWire(len(buf), 0)
			sent = true
		}
		cm.Barrier() // round-k senders staged
		if !sent {
			if partner := rank + bit; partner < p {
				m := cm.Peek(partner)
				buf = append(buf, m...)
				cm.AccountWire(0, len(m))
			}
		}
		cm.Barrier() // round-k reads done
	}
	e.treeBuf[e.calls&1] = buf
	e.calls++
	if rank == 0 {
		tc.SpanSince(trace.OpTreeGather, int64(len(buf)), tb)
	}

	// Broadcast the root's full set down the tree and parse it.
	full := e.treeCast(buf, 0, trace.OpTreeBcast)
	e.out = parseFrames(e.out[:0], full, p)
	cm.Barrier() // all reads done before slots are reused
	return e.out
}

// treeBroadcast is the standalone binomial broadcast used for parameter
// re-synchronization.
func (e *Exchanger) treeBroadcast(data []byte, root int) []byte {
	out := e.treeCast(data, root, trace.OpTreeBcast)
	e.cm.Barrier() // all reads done before slots are reused
	return out
}

// treeCast runs a binomial broadcast of root's data (relative ranks make
// any root work): a rank whose relative rank has lowest set bit k
// receives from its parent at round k (rounds descend from the top bit)
// and stages the alias for its own children in later rounds. One
// barrier per round: a parent's slot is posted once and stays stable, so
// round k's readers only touch slots staged in earlier rounds.
func (e *Exchanger) treeCast(data []byte, root int, op trace.Op) []byte {
	cm := e.cm
	p := cm.P()
	rank := cm.RankID()
	rel := (rank - root + p) % p
	r := bits.Len(uint(p - 1))
	tc := cm.Trace()

	var tb time.Time
	if tc != nil {
		tb = time.Now()
	}
	var hold []byte
	if rank == root {
		hold = data
		cm.Post(hold)
	}
	cm.Barrier() // root staged
	for k := r - 1; k >= 0; k-- {
		bit := 1 << k
		if hold == nil && rel&bit != 0 && rel&(bit-1) == 0 {
			parent := (root + rel - bit) % p
			hold = cm.Peek(parent)
			cm.AccountWire(0, len(hold))
			cm.Post(hold) // stage for my children in later rounds
		} else if hold != nil {
			if child := rel + bit; child < p {
				cm.AccountWire(len(hold), 0)
			}
		}
		cm.Barrier() // round-k reads and stagings done
	}
	tc.SpanSince(op, int64(len(hold)), tb)
	return hold
}
