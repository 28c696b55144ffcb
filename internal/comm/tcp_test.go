package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func startOrSkip(t *testing.T, p int) []*TCPComm {
	t.Helper()
	comms, err := StartLocalTCPCluster(p)
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(func() {
		for _, c := range comms {
			c.Close()
		}
	})
	return comms
}

func TestTCPAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6} {
		comms := startOrSkip(t, p)
		results := make([][][]byte, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				msg := []byte(fmt.Sprintf("tcp-rank-%d", rank))
				results[rank], errs[rank] = comms[rank].Allgather(msg)
			}(r)
		}
		wg.Wait()
		for r := 0; r < p; r++ {
			if errs[r] != nil {
				t.Fatalf("p=%d rank %d: %v", p, r, errs[r])
			}
			for s := 0; s < p; s++ {
				want := fmt.Sprintf("tcp-rank-%d", s)
				if string(results[r][s]) != want {
					t.Fatalf("p=%d rank %d slot %d = %q", p, r, s, results[r][s])
				}
			}
		}
	}
}

func TestTCPAllgatherLargeMessages(t *testing.T) {
	// Messages far larger than socket buffers: the per-peer send
	// goroutines must prevent deadlock.
	p := 3
	comms := startOrSkip(t, p)
	const size = 4 << 20
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			msg := bytes.Repeat([]byte{byte(rank + 1)}, size)
			got, err := comms[rank].Allgather(msg)
			if err != nil {
				errs[rank] = err
				return
			}
			for s := 0; s < p; s++ {
				if len(got[s]) != size || got[s][0] != byte(s+1) || got[s][size-1] != byte(s+1) {
					errs[rank] = fmt.Errorf("slot %d corrupted", s)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTCPRepeatedCollectives(t *testing.T) {
	p := 3
	comms := startOrSkip(t, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				msg := []byte{byte(rank), byte(round)}
				got, err := comms[rank].Allgather(msg)
				if err != nil {
					t.Errorf("rank %d round %d: %v", rank, round, err)
					return
				}
				for s := 0; s < p; s++ {
					if got[s][0] != byte(s) || got[s][1] != byte(round) {
						t.Errorf("rank %d round %d slot %d corrupted", rank, round, s)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestDialTCPClusterValidation(t *testing.T) {
	if _, err := DialTCPCluster(-1, 2, []string{"a", "b"}, nil); err == nil {
		t.Fatal("negative rank should fail")
	}
	if _, err := DialTCPCluster(0, 2, []string{"a"}, nil); err == nil {
		t.Fatal("addr count mismatch should fail")
	}
}

func BenchmarkTCPAllgather4x256K(b *testing.B) {
	comms, err := StartLocalTCPCluster(4)
	if err != nil {
		b.Skip(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	msg := make([]byte, 256<<10)
	b.SetBytes(int64(4 * len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				if _, err := comms[rank].Allgather(msg); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
}

// TestReadFrameLyingHeader: a header claiming 4 GiB ahead of three
// payload bytes must not make the receiver allocate the claim; a frame
// cut short after its payload was allocated is unexpected EOF too; and an
// honest frame past the first chunk still arrives whole.
func TestReadFrameLyingHeader(t *testing.T) {
	in := []byte{0xF0, 0xFF, 0xFF, 0xFF, 1, 2, 3}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame returned %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 7-byte input allocated %d bytes", got)
	}

	want := make([]byte, 5*firstFrameChunk+3)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-firstFrameChunk]
	if _, err := readFrame(bytes.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut after its payload was allocated returned %v, want io.ErrUnexpectedEOF", err)
	}
	if got, err := readFrame(&buf); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("honest %d-byte frame: %d bytes back, %v", len(want), len(got), err)
	}
}

// FuzzReadFrame: any input is an error or exactly the payload its header
// announces, and writeFrame → readFrame round-trips the input.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{0xF0, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		payload, err := readFrame(bytes.NewReader(in))
		if err == nil {
			n := int(binary.LittleEndian.Uint32(in))
			if len(payload) != n || !bytes.Equal(payload, in[4:4+n]) {
				t.Fatalf("header says %d bytes, got %d not equal to the input's", n, len(payload))
			}
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, in); err != nil {
			t.Fatal(err)
		}
		back, err := readFrame(&buf)
		if err != nil || !bytes.Equal(back, in) {
			t.Fatalf("round trip of %d bytes: %v", len(in), err)
		}
	})
}

// TestDialRejectsDuplicateRank: two dialers both claiming rank 1 must fail
// rank 0's mesh with an error naming the rank, not leave rank 2's link nil.
func TestDialRejectsDuplicateRank(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	addrs := []string{ln.Addr().String(), "unused", "unused"}
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte{1, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := DialTCPCluster(0, 3, addrs, ln)
	if err == nil {
		c.Close()
		t.Fatal("a mesh with rank 1 twice and no rank 2 was built")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error %q does not name the duplicate rank", err)
	}
}
