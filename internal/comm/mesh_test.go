package comm

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func listenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func TestMeshSendRecv(t *testing.T) {
	mesh := NewMesh(3)
	a, b := mesh.Endpoint(0), mesh.Endpoint(1)
	payload := []byte("hello")
	if err := a.Send(1, Message{Seq: 7, Kind: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X' // sender may reuse its buffer immediately
	msg, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 0 || msg.Seq != 7 || msg.Kind != 2 || string(msg.Payload) != "hello" {
		t.Fatalf("got %+v payload %q", msg, msg.Payload)
	}
}

func TestMeshRecvTimeoutTyped(t *testing.T) {
	mesh := NewMesh(2)
	e := mesh.Endpoint(0)
	start := time.Now()
	_, err := e.Recv(20 * time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout")
	}
	if !errors.Is(err, ErrTimeout) || !IsRetryable(err) {
		t.Fatalf("want retryable ErrTimeout, got %v", err)
	}
	var oe *OpError
	if !errors.As(err, &oe) || !oe.Timeout() {
		t.Fatalf("want *OpError with Timeout(), got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far too long")
	}
}

// TestMeshRecvRearmsItsTimer: Recv keeps one timer across calls. A fire
// that nobody received, because a message won the wait, must not end the
// next wait early, and a steady-state Recv allocates nothing.
func TestMeshRecvRearmsItsTimer(t *testing.T) {
	mesh := NewMesh(2)
	a, b := mesh.Endpoint(0), mesh.Endpoint(1)
	if err := a.Send(1, Message{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // the 1 ms timer fires unreceived
	start := time.Now()
	if _, err := b.Recv(100 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if d := time.Since(start); d < 90*time.Millisecond {
		t.Fatalf("the wait ended after %v: a stale fire cut it short", d)
	}
	if raceEnabled {
		return // allocation counts are inflated under -race
	}
	recv := func() {
		_ = a.Send(1, Message{Seq: 2})
		if _, err := b.Recv(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, recv); n != 0 {
		t.Errorf("a send and a receive allocate %.2f allocs/op, want 0", n)
	}
}

func TestMeshCloseUnblocksRecv(t *testing.T) {
	mesh := NewMesh(2)
	e := mesh.Endpoint(1)
	done := make(chan error, 1)
	go func() {
		_, err := e.Recv(10 * time.Second)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	e.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	// Sends to a closed peer vanish instead of erroring (network semantics).
	if err := mesh.Endpoint(0).Send(1, Message{Payload: []byte("x")}); err != nil {
		t.Fatalf("send to closed peer: %v", err)
	}
}

func TestMeshManyToOne(t *testing.T) {
	const p = 5
	mesh := NewMesh(p)
	sink := mesh.Endpoint(0)
	var wg sync.WaitGroup
	for r := 1; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			e := mesh.Endpoint(rank)
			for s := 0; s < 20; s++ {
				if err := e.Send(0, Message{Seq: uint64(s), Payload: []byte{byte(rank)}}); err != nil {
					t.Errorf("rank %d: %v", rank, err)
				}
			}
		}(r)
	}
	wg.Wait()
	got := 0
	for {
		msg, err := sink.Recv(100 * time.Millisecond)
		if err != nil {
			break
		}
		if msg.From < 1 || msg.From >= p || msg.Payload[0] != byte(msg.From) {
			t.Fatalf("corrupt message %+v", msg)
		}
		got++
	}
	if got != (p-1)*20 {
		t.Fatalf("received %d of %d messages", got, (p-1)*20)
	}
}

// TestTCPReadTimeoutTyped: a peer that never sends must surface as a
// typed, retryable timeout instead of hanging the collective — the bug
// the failure-aware runtime exists to exploit.
func TestTCPReadTimeoutTyped(t *testing.T) {
	comms, err := StartLocalTCPCluster(2)
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	comms[0].SetTimeout(50 * time.Millisecond)
	start := time.Now()
	// Rank 1 never enters the collective: rank 0's read must time out.
	_, err = comms[0].Allgather([]byte("alone"))
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if !IsRetryable(err) || !errors.Is(err, ErrTimeout) {
		t.Fatalf("want retryable ErrTimeout, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timed-out allgather took far too long")
	}
}

// TestTCPDeadPeerSurfaces: a crashed (closed) peer must produce an error,
// not a hang.
func TestTCPDeadPeerSurfaces(t *testing.T) {
	comms, err := StartLocalTCPCluster(2)
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer comms[0].Close()
	comms[1].Close() // peer crash
	comms[0].SetTimeout(100 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := comms[0].Allgather([]byte("to-the-dead"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from the dead peer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("allgather against a dead peer hung")
	}
}

// TestDialTCPClusterContextCancel: mesh construction aborts when the
// context expires while waiting for peers that never dial.
func TestDialTCPClusterContextCancel(t *testing.T) {
	ln, err := listenLoopback()
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = DialTCPClusterContext(ctx, 0, 2, []string{ln.Addr().String(), "127.0.0.1:1"}, ln)
	if err == nil {
		t.Fatal("expected context expiry error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation took far too long")
	}
}
