package comm

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"fftgrad/internal/telemetry"
)

// TCPComm is a rank endpoint whose collectives run over real TCP
// connections (a full mesh of point-to-point links), the transport a
// deployment across machines would use. The in-process Cluster and
// TCPComm expose the same collective semantics; tests assert they agree.
//
// With a Timeout set, every frame read/write arms a connection deadline
// first, so a crashed or wedged peer surfaces as a typed, retryable
// timeout (*OpError wrapping ErrTimeout, IsRetryable == true) instead of
// hanging the collective forever.
type TCPComm struct {
	rank    int
	p       int
	conns   []net.Conn // conns[j] = link to rank j (nil for j == rank)
	ln      net.Listener
	timeout time.Duration      // per-frame I/O deadline; 0 = block forever
	tx, rx  *telemetry.Counter // actual frame bytes on the wire (nil = off)
}

// SetTimeout arms a per-frame I/O deadline on every subsequent collective.
// Call before the first collective (the field is read concurrently by the
// per-peer sender goroutines afterwards). Zero restores blocking I/O.
func (c *TCPComm) SetTimeout(d time.Duration) { c.timeout = d }

// Instrument registers bytes-on-wire counters on reg and starts
// accounting every frame (4-byte length prefix + payload) this endpoint
// sends or receives. Call before the first collective.
func (c *TCPComm) Instrument(reg *telemetry.Registry) {
	c.tx = reg.Counter(`fftgrad_comm_tx_bytes_total{transport="tcp"}`,
		"Bytes sent on the TCP mesh transport, including frame headers.")
	c.rx = reg.Counter(`fftgrad_comm_rx_bytes_total{transport="tcp"}`,
		"Bytes received on the TCP mesh transport, including frame headers.")
}

// frame I/O: u32 little-endian length prefix + payload.

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	// The length is the peer's claim, not a fact. Past the first chunk, the
	// frame is read into a reused staging buffer that doubles as bytes
	// arrive, and the payload is allocated once half of it is in hand: a
	// lying header costs at most about twice what was actually sent.
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	var head []byte
	if n > firstFrameChunk {
		st, _ := stages.Get().(*[]byte)
		if st == nil {
			st = new([]byte)
		}
		defer stages.Put(st)
		head = (*st)[:0]
		for step := firstFrameChunk; 2*len(head) < n; step = len(head) {
			head = slices.Grow(head, step)
			m, err := io.ReadFull(r, head[len(head):len(head)+step])
			head = head[:len(head)+m]
			*st = head[:0]
			if err != nil {
				return nil, truncated(err, len(head))
			}
		}
	}
	payload := make([]byte, n)
	m, err := io.ReadFull(r, payload[copy(payload, head):])
	if err != nil {
		return nil, truncated(err, len(head)+m)
	}
	return payload, nil
}

// truncated is the error of a frame read that failed after got payload
// bytes: an EOF inside the payload is unexpected.
func truncated(err error, got int) error {
	if err == io.EOF && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// firstFrameChunk is the longest frame readFrame allocates on the
// header's word alone: 256 KiB, more than the 131 KB θ = 0.85 FFT message
// of wide_fft's 1.9 MB gradient, so such a message takes one exact
// allocation and no copy.
const firstFrameChunk = 256 << 10

// stages holds the staging buffers of frames longer than firstFrameChunk.
var stages sync.Pool

// wrapNetErr types a raw socket error: net.Error timeouts become
// *OpError{Err: ErrTimeout} (retryable), everything else is wrapped
// as-is so errors.Is/As still reach the cause.
func (c *TCPComm) wrapNetErr(op string, peer int, err error) error {
	if err == nil {
		return nil
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return &OpError{Op: op, Rank: c.rank, Peer: peer, Err: fmt.Errorf("%w (%v)", ErrTimeout, err)}
	}
	return &OpError{Op: op, Rank: c.rank, Peer: peer, Err: err}
}

// writeFrameTo writes one frame to peer j, arming the write deadline when
// a timeout is configured.
func (c *TCPComm) writeFrameTo(j int, payload []byte) error {
	conn := c.conns[j]
	if conn == nil {
		return &OpError{Op: "write", Rank: c.rank, Peer: j, Err: ErrPeerDown}
	}
	if c.timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return c.wrapNetErr("write", j, err)
		}
	}
	return c.wrapNetErr("write", j, writeFrame(conn, payload))
}

// readFrameFrom reads one frame from peer j, arming the read deadline
// when a timeout is configured.
func (c *TCPComm) readFrameFrom(j int) ([]byte, error) {
	conn := c.conns[j]
	if conn == nil {
		return nil, &OpError{Op: "read", Rank: c.rank, Peer: j, Err: ErrPeerDown}
	}
	if c.timeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, c.wrapNetErr("read", j, err)
		}
	}
	payload, err := readFrame(conn)
	return payload, c.wrapNetErr("read", j, err)
}

// DialTCPCluster builds rank's endpoint of a p-rank mesh. addrs[i] is the
// listen address of rank i; the caller must have rank's listener already
// bound (pass it as ln) so that no connection races the listen call.
// Ranks dial every lower rank and accept from every higher rank; the
// dialer identifies itself with a 4-byte rank header.
func DialTCPCluster(rank, p int, addrs []string, ln net.Listener) (*TCPComm, error) {
	return DialTCPClusterContext(context.Background(), rank, p, addrs, ln)
}

// DialTCPClusterContext is DialTCPCluster honoring ctx: dials use
// DialContext, accepts poll a listener deadline so ctx cancellation (or
// expiry) aborts mesh construction with a typed error instead of
// blocking on a peer that never arrives.
func DialTCPClusterContext(ctx context.Context, rank, p int, addrs []string, ln net.Listener) (*TCPComm, error) {
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("comm: rank %d out of [0,%d)", rank, p)
	}
	if len(addrs) != p {
		return nil, fmt.Errorf("comm: %d addrs for %d ranks", len(addrs), p)
	}
	c := &TCPComm{rank: rank, p: p, conns: make([]net.Conn, p), ln: ln}

	var wg sync.WaitGroup
	errs := make([]error, 2)

	// Accept from higher ranks, polling a short accept deadline so ctx is
	// observed even while no peer is dialing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		dl, hasDeadline := ln.(interface{ SetDeadline(time.Time) error })
		for accepted := 0; accepted < p-1-rank; accepted++ {
			var conn net.Conn
			for {
				if err := ctx.Err(); err != nil {
					errs[0] = &OpError{Op: "accept", Rank: rank, Peer: -1, Err: err}
					return
				}
				if hasDeadline {
					_ = dl.SetDeadline(time.Now().Add(200 * time.Millisecond))
				}
				var err error
				conn, err = ln.Accept()
				if err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() && hasDeadline {
						continue // poll ctx and re-arm
					}
					errs[0] = c.wrapNetErr("accept", -1, err)
					return
				}
				break
			}
			if hasDeadline {
				_ = dl.SetDeadline(time.Time{})
			}
			if deadline, ok := ctx.Deadline(); ok {
				_ = conn.SetReadDeadline(deadline)
			}
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				errs[0] = c.wrapNetErr("accept", -1, err)
				return
			}
			_ = conn.SetReadDeadline(time.Time{})
			peer := int(binary.LittleEndian.Uint32(hdr[:]))
			if peer <= rank || peer >= p {
				conn.Close()
				errs[0] = fmt.Errorf("comm: unexpected peer rank %d", peer)
				return
			}
			if c.conns[peer] != nil {
				conn.Close()
				errs[0] = fmt.Errorf("comm: rank %d connected twice", peer)
				return
			}
			c.conns[peer] = conn
		}
	}()

	// Dial lower ranks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var d net.Dialer
		for j := 0; j < rank; j++ {
			conn, err := d.DialContext(ctx, "tcp", addrs[j])
			if err != nil {
				errs[1] = c.wrapNetErr("dial", j, err)
				return
			}
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(rank))
			if deadline, ok := ctx.Deadline(); ok {
				_ = conn.SetWriteDeadline(deadline)
			}
			if _, err := conn.Write(hdr[:]); err != nil {
				errs[1] = c.wrapNetErr("dial", j, err)
				return
			}
			_ = conn.SetWriteDeadline(time.Time{})
			c.conns[j] = conn
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// StartLocalTCPCluster spins up a p-rank mesh on loopback and returns the
// connected endpoints, rank order preserved.
func StartLocalTCPCluster(p int) ([]*TCPComm, error) {
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	comms := make([]*TCPComm, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comms[rank], errs[rank] = DialTCPCluster(rank, p, addrs, lns[rank])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return comms, nil
}

// Close tears down all links and the listener.
func (c *TCPComm) Close() {
	for _, conn := range c.conns {
		if conn != nil {
			conn.Close()
		}
	}
	if c.ln != nil {
		c.ln.Close()
	}
}

// Allgather contributes data and returns every rank's contribution in
// rank order. Sends run on per-peer goroutines so large messages cannot
// deadlock against full TCP buffers.
func (c *TCPComm) Allgather(data []byte) ([][]byte, error) {
	out := make([][]byte, c.p)
	out[c.rank] = data
	var wg sync.WaitGroup
	sendErrs := make([]error, c.p)
	for j := 0; j < c.p; j++ {
		if j == c.rank {
			continue
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			if sendErrs[j] = c.writeFrameTo(j, data); sendErrs[j] == nil {
				c.tx.Add(c.rank, 4+len(data))
			}
		}(j)
	}
	var firstErr error
	for j := 0; j < c.p; j++ {
		if j == c.rank {
			continue
		}
		payload, err := c.readFrameFrom(j)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		c.rx.Add(c.rank, 4+len(payload))
		out[j] = payload
	}
	wg.Wait()
	for _, err := range sendErrs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}
