package comm

import (
	"sync"
	"sync/atomic"
	"time"
)

// Transport is rank-scoped, deadline-aware point-to-point messaging — the
// substrate the failure-aware cluster runtime (internal/cluster) builds
// its membership and exchange protocols on. Unlike the barrier-based
// collectives above, a Transport never blocks on a dead peer: every Recv
// takes a timeout and sends to vanished endpoints fail or vanish instead
// of wedging the caller. The chaos harness (internal/chaos) wraps any
// Transport to inject faults.
type Transport interface {
	// RankID returns the local rank.
	RankID() int
	// P returns the cluster size.
	P() int
	// Send delivers m to rank `to`. The caller may reuse m.Payload as soon
	// as the call returns. Delivery is best-effort: a lost message
	// surfaces as the receiver's Recv timeout, not a send error.
	Send(to int, m Message) error
	// Recv returns the next inbound message, waiting at most timeout.
	// Expiry returns an *OpError wrapping ErrTimeout. A non-nil Payload is
	// lent: the receiver hands it back through Release exactly once.
	Recv(timeout time.Duration) (Message, error)
	// Release returns a payload Recv lent; the caller must not touch it
	// afterwards. A nil payload is a no-op.
	Release(payload []byte)
	// Close tears the endpoint down; blocked Recvs return ErrClosed.
	Close() error
}

// Message is one point-to-point datagram. Kind and Seq are opaque to the
// transport; the cluster protocol assigns meanings (data, heartbeat,
// nack, sync, ...).
type Message struct {
	From    int
	Seq     uint64
	Kind    uint8
	Payload []byte
}

// Mesh is the in-process Transport: one buffered mailbox per rank. It
// models a full mesh of lossless-but-unordered-latency links; loss,
// delay and partitions come from wrapping endpoints with internal/chaos.
// A send copies its payload into a buffer from the receiving rank's free
// list, which that rank's Releases refill, so a steady stream of
// messages allocates nothing.
type Mesh struct {
	p     int
	boxes []chan Message
	done  []chan struct{} // closed when the endpoint closes
	free  []freeList
}

// freeList is one rank's released receive buffers.
type freeList struct {
	mu   sync.Mutex
	bufs [][]byte
}

// take returns the smallest free buffer that holds n bytes, emptied. Data
// and sync payloads differ about 15× in size, so the smallest fit keeps a
// data message from taking (and a sync from regrowing) the other's
// buffer. With none big enough it gives up the first one for the caller
// to regrow, so the list never holds more than was ever in flight.
func (f *freeList) take(n int) (b []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := -1
	for i, c := range f.bufs {
		if k < 0 || cap(c) >= n && (cap(f.bufs[k]) < n || cap(c) < cap(f.bufs[k])) {
			k = i
		}
	}
	if k >= 0 {
		last := len(f.bufs) - 1
		b, f.bufs[k], f.bufs = f.bufs[k], f.bufs[last], f.bufs[:last]
	}
	return b[:0]
}

func (f *freeList) put(b []byte) {
	if b != nil {
		f.mu.Lock()
		f.bufs = append(f.bufs, b)
		f.mu.Unlock()
	}
}

// mailboxDepth bounds each rank's inbound queue. The cluster runtime
// drains its transport continuously from a dedicated receiver goroutine,
// so the queue only has to absorb short bursts (heartbeats during a
// compute phase, duplicated retransmissions). Overflow drops the message
// — the same observable behaviour as network loss, repaired by the
// retry/nack protocol above.
const mailboxDepth = 1024

// NewMesh creates a p-rank in-process mesh.
func NewMesh(p int) *Mesh {
	if p < 1 {
		panic("comm: mesh needs at least one rank")
	}
	m := &Mesh{p: p, boxes: make([]chan Message, p), done: make([]chan struct{}, p), free: make([]freeList, p)}
	for i := range m.boxes {
		m.boxes[i] = make(chan Message, mailboxDepth)
		m.done[i] = make(chan struct{})
	}
	return m
}

// Endpoint returns rank's endpoint. Each endpoint must be used by one
// logical owner (the cluster member): Send is goroutine-safe, Recv is for
// one goroutine at a time, the owner's receive loop, whose wait timer the
// endpoint keeps.
func (m *Mesh) Endpoint(rank int) *MeshEndpoint {
	if rank < 0 || rank >= m.p {
		panic("comm: mesh rank out of range")
	}
	return &MeshEndpoint{mesh: m, rank: rank}
}

// MeshEndpoint is one rank's handle on a Mesh.
type MeshEndpoint struct {
	mesh   *Mesh
	rank   int
	closed atomic.Bool
	timer  Timer // Recv's
}

// RankID returns this endpoint's rank.
func (e *MeshEndpoint) RankID() int { return e.rank }

// P returns the mesh size.
func (e *MeshEndpoint) P() int { return e.mesh.p }

// Send implements Transport. The payload is copied into a buffer of the
// receiver's, so the caller keeps its own. Sends to closed or saturated
// mailboxes are silently dropped — exactly how a network loses frames to
// a dead host or a full queue; the receiver-side timeout surfaces it —
// and the copy goes straight back to the receiver's free list.
func (e *MeshEndpoint) Send(to int, m Message) error {
	if e.closed.Load() {
		return &OpError{Op: "send", Rank: e.rank, Peer: to, Err: ErrClosed}
	}
	if to < 0 || to >= e.mesh.p {
		return &OpError{Op: "send", Rank: e.rank, Peer: to, Err: ErrPeerDown}
	}
	m.From = e.rank
	if m.Payload != nil {
		m.Payload = append(e.mesh.free[to].take(len(m.Payload)), m.Payload...)
	}
	select {
	case <-e.mesh.done[to]: // peer closed: the frame vanishes
	case e.mesh.boxes[to] <- m:
		return nil
	default: // mailbox full: dropped like any congested link
	}
	e.mesh.free[to].put(m.Payload)
	return nil
}

// Release implements Transport: the buffer joins this rank's free list.
func (e *MeshEndpoint) Release(payload []byte) { e.mesh.free[e.rank].put(payload) }

// Recv implements Transport.
func (e *MeshEndpoint) Recv(timeout time.Duration) (Message, error) {
	if e.closed.Load() {
		return Message{}, &OpError{Op: "recv", Rank: e.rank, Peer: -1, Err: ErrClosed}
	}
	expired := e.timer.Arm(timeout)
	select {
	case msg := <-e.mesh.boxes[e.rank]:
		return msg, nil
	case <-e.mesh.done[e.rank]:
		return Message{}, &OpError{Op: "recv", Rank: e.rank, Peer: -1, Err: ErrClosed}
	case <-expired:
		return Message{}, &OpError{Op: "recv", Rank: e.rank, Peer: -1, Err: ErrTimeout}
	}
}

// Close implements Transport. Idempotent.
func (e *MeshEndpoint) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		close(e.mesh.done[e.rank])
	}
	return nil
}

// Timer is a receive loop's timeout: one timer for the loop's whole life,
// re-armed before each wait, instead of a new one per wait. The zero value
// is ready to use; a Timer is for one goroutine at a time.
type Timer struct{ t *time.Timer }

// Arm sets the timer to fire once, d from now, and returns its channel.
// Under the timer rules before Go 1.23 (go.mod says go 1.22) a timer's
// channel keeps a fire nobody received, which would end the next wait at
// once, so Arm stops the timer and drains that fire before the Reset.
func (t *Timer) Arm(d time.Duration) <-chan time.Time {
	if t.t == nil {
		t.t = time.NewTimer(d)
		return t.t.C
	}
	if !t.t.Stop() {
		select {
		case <-t.t.C:
		default:
		}
	}
	t.t.Reset(d)
	return t.t.C
}
