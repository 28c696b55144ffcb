package comm

import (
	"errors"
	"fmt"
	"net"
)

// Typed transport errors. The cluster runtime's retry loop needs to tell
// transient faults (a timed-out read on a flaky link — retry with
// backoff) from structural ones (a closed endpoint, a crashed peer —
// escalate to suspicion / view change). Every error surfaced by the
// transports wraps one of these sentinels so callers classify with
// errors.Is instead of string matching.
var (
	// ErrTimeout marks a deadline expiry: a frame read/write that hit its
	// deadline, a mesh Recv that drained nothing in time, or a chaos-
	// injected message loss. Retryable.
	ErrTimeout = errors.New("comm: timeout")
	// ErrClosed marks an operation on an endpoint after Close. Terminal.
	ErrClosed = errors.New("comm: endpoint closed")
	// ErrPeerDown marks a send to an endpoint known to be gone (closed
	// mailbox, broken connection). Not retryable on its own; recovery goes
	// through the cluster layer's suspicion and rejoin protocol.
	ErrPeerDown = errors.New("comm: peer down")
	// ErrCorrupt marks a frame that failed an integrity check (bad magic,
	// unknown version, CRC mismatch). Retransmitting the same bytes cannot
	// help, but the payload itself is recoverable: the cluster layer treats
	// a corrupt frame exactly like a lost one and repairs it through the
	// nack/resend path, which fetches a fresh copy from the sender.
	ErrCorrupt = errors.New("comm: corrupt frame")
)

// OpError decorates a transport error with the operation and the ranks
// involved, preserving the wrapped sentinel for errors.Is and net.Error
// timeouts for errors.As.
type OpError struct {
	Op   string // "send", "recv", "dial", "accept", "read", "write"
	Rank int    // local rank
	Peer int    // remote rank, -1 when unknown
	Err  error
}

func (e *OpError) Error() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("comm: rank %d %s (peer %d): %v", e.Rank, e.Op, e.Peer, e.Err)
	}
	return fmt.Sprintf("comm: rank %d %s: %v", e.Rank, e.Op, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// IsRetryable reports whether err is transient: a timeout (deadline
// expiry or injected loss) that a bounded-backoff retry may clear.
// Closed endpoints and downed peers are not retryable — those resolve
// through the cluster membership protocol, not retransmission.
func IsRetryable(err error) bool {
	var ne net.Error
	return errors.Is(err, ErrTimeout) || errors.As(err, &ne) && ne.Timeout()
}
