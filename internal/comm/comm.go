// Package comm implements the collective-communication substrate for the
// in-process worker cluster: allgather, broadcast and barrier across
// goroutine "ranks", plus the Post/Peek staging every composite schedule
// in internal/collective is built on.
//
// The paper exchanges compressed gradients with NCCL2's allgather because
// no MPI implementation offers sparse allreduce (Sec. 4, Implementation,
// and the conclusion's call for sparse collectives). This package mirrors
// that API surface: byte-message Allgather for every payload (the lossless
// baseline included, as in the paper) and a Broadcast used for the periodic
// parameter re-synchronization. Composite schedules live in
// internal/collective; DESIGN.md Sec. 12 records why there is no sparse
// allreduce among them.
package comm

import (
	"fmt"
	"sync"
	"time"

	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// Cluster coordinates p ranks running in one process.
type Cluster struct {
	p       int
	barrier *barrier
	slots   [][]byte           // allgather / broadcast staging, one slot per rank
	tx, rx  *telemetry.Counter // logical bytes-on-wire (nil = off)
}

// Instrument registers bytes-on-wire counters on reg and starts
// accounting every collective against them. The in-process transport
// moves no real bytes — what is counted is the *logical* wire traffic
// of the equivalent ring schedules (the volumes netsim prices), so an
// instrumented in-process run and a TCP run of the same job report
// comparable totals. Call before the first collective; counter updates
// are atomic and allocation-free.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	c.tx = reg.Counter(`fftgrad_comm_tx_bytes_total{transport="inproc"}`,
		"Logical bytes sent by collectives on the in-process transport.")
	c.rx = reg.Counter(`fftgrad_comm_rx_bytes_total{transport="inproc"}`,
		"Logical bytes received by collectives on the in-process transport.")
}

// NewCluster creates a cluster of p ranks.
func NewCluster(p int) *Cluster {
	if p < 1 {
		panic("comm: cluster needs at least one rank")
	}
	return &Cluster{p: p, barrier: newBarrier(p), slots: make([][]byte, p)}
}

// Rank returns the communicator handle for one rank (0 ≤ rank < p).
// Each handle must be used by exactly one goroutine.
func (c *Cluster) Rank(rank int) *Comm {
	if rank < 0 || rank >= c.p {
		panic(fmt.Sprintf("comm: rank %d out of [0,%d)", rank, c.p))
	}
	return &Comm{cluster: c, rank: rank}
}

// Comm is one rank's endpoint. All collective methods must be called by
// every rank (they synchronize internally) and are not reentrant.
type Comm struct {
	cluster *Cluster
	rank    int
	tc      *trace.Ctx
}

// AttachTrace records this rank's collective arrival waits (the barrier
// span that visualizes rank skew in the timeline) on tc. A nil tc keeps
// tracing off; recording is atomics-only either way.
func (c *Comm) AttachTrace(tc *trace.Ctx) { c.tc = tc }

// RankID returns this endpoint's rank.
func (c *Comm) RankID() int { return c.rank }

// P returns the cluster size.
func (c *Comm) P() int { return c.cluster.p }

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() { c.cluster.barrier.await() }

// Allgather contributes data and returns every rank's contribution in
// rank order. The returned slices alias the senders' buffers; treat them
// as read-only.
func (c *Comm) Allgather(data []byte) [][]byte {
	return c.AllgatherInto(make([][]byte, 0, c.cluster.p), data)
}

// AllgatherInto is Allgather reusing a caller-provided result slice: dst
// is truncated and appended to, so a slice retained across iterations
// makes the steady-state path allocation-free. The returned slices alias
// the senders' buffers; treat them as read-only.
func (c *Comm) AllgatherInto(dst [][]byte, data []byte) [][]byte {
	cl := c.cluster
	cl.slots[c.rank] = data
	var tb time.Time
	if c.tc != nil {
		tb = time.Now()
	}
	cl.barrier.await() // all contributions visible
	if c.tc != nil {
		// The arrival wait: how long this rank idled for the slowest peer.
		c.tc.SpanSince(trace.OpBarrier, int64(len(data)), tb)
	}
	out := append(dst[:0], cl.slots...)
	if cl.tx != nil {
		// Ring allgather volume: each rank forwards its m bytes p−1 times
		// and receives every peer's contribution once.
		cl.tx.Add(c.rank, (cl.p-1)*len(data))
		for j, m := range out {
			if j != c.rank {
				cl.rx.Add(c.rank, len(m))
			}
		}
	}
	cl.barrier.await() // all reads done before slots are reused
	return out
}

// Post stages data in this rank's slot without synchronizing. Composite
// schedules (internal/collective's hierarchical and tree strategies)
// pair Post/Peek with explicit Barriers to build multi-phase collectives
// on the same staging substrate the built-in collectives use. The staged
// slice may be read by peers until the next Post on this rank, so it
// must stay stable across the schedule's barriers.
func (c *Comm) Post(data []byte) { c.cluster.slots[c.rank] = data }

// Peek returns the slice rank r last staged (via Post or a collective).
// Only meaningful between the barrier that ordered the staging and the
// barrier that releases the slot; treat as read-only.
func (c *Comm) Peek(r int) []byte { return c.cluster.slots[r] }

// AccountWire adds logical bytes-on-wire to this rank's instrumented
// counters (a no-op when the cluster is not instrumented). Composite
// collectives report the volumes their equivalent wire schedule would
// move, keeping in-process accounting comparable with netsim pricing.
func (c *Comm) AccountWire(tx, rx int) {
	c.cluster.tx.Add(c.rank, tx)
	c.cluster.rx.Add(c.rank, rx)
}

// Trace returns the context attached with AttachTrace (nil when tracing
// is off), so composite collectives can record per-phase spans.
func (c *Comm) Trace() *trace.Ctx { return c.tc }

// Broadcast returns root's buffer on every rank (the root passes its data;
// other ranks' data arguments are ignored). The returned slice aliases the
// root's buffer; treat it as read-only.
func (c *Comm) Broadcast(data []byte, root int) []byte {
	cl := c.cluster
	if c.rank == root {
		cl.slots[root] = data
	}
	var tb time.Time
	if c.tc != nil {
		tb = time.Now()
	}
	cl.barrier.await()
	out := cl.slots[root]
	if c.tc != nil {
		c.tc.SpanSince(trace.OpBarrier, int64(len(out)), tb)
	}
	if cl.tx != nil {
		if c.rank == root {
			cl.tx.Add(c.rank, (cl.p-1)*len(data))
		} else {
			cl.rx.Add(c.rank, len(out))
		}
	}
	cl.barrier.await()
	return out
}

// barrier is a reusable counting barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
