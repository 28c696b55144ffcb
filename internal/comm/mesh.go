package comm

import (
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
	// Send delivers m to rank `to`. The transport owns m.Payload after the
	// call returns (implementations copy), so callers may reuse their
	// buffers immediately. Delivery is best-effort: a lost message
	// surfaces as the receiver's Recv timeout, not a send error.
	Send(to int, m Message) error
	// Recv returns the next inbound message, waiting at most timeout.
	// Expiry returns an *OpError wrapping ErrTimeout.
	Recv(timeout time.Duration) (Message, error)
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
type Mesh struct {
	p     int
	boxes []chan Message
	done  []chan struct{} // closed when the endpoint closes
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
	m := &Mesh{p: p, boxes: make([]chan Message, p), done: make([]chan struct{}, p)}
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

// Send implements Transport. The payload is copied, so the caller keeps
// ownership of its buffer. Sends to closed or saturated mailboxes are
// silently dropped — exactly how a network loses frames to a dead host or
// a full queue; the receiver-side timeout surfaces it.
func (e *MeshEndpoint) Send(to int, m Message) error {
	if e.closed.Load() {
		return &OpError{Op: "send", Rank: e.rank, Peer: to, Err: ErrClosed}
	}
	if to < 0 || to >= e.mesh.p {
		return &OpError{Op: "send", Rank: e.rank, Peer: to, Err: ErrPeerDown}
	}
	m.From = e.rank
	if m.Payload != nil {
		m.Payload = append([]byte(nil), m.Payload...)
	}
	select {
	case <-e.mesh.done[to]:
		return nil // peer closed: frame vanishes on the floor
	case e.mesh.boxes[to] <- m:
		return nil
	default:
		return nil // mailbox full: dropped like any congested link
	}
}

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
