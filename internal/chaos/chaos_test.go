package chaos

import (
	"errors"
	"math/bits"
	"testing"
	"time"

	"fftgrad/internal/comm"
)

// TestDeterministicSchedule: the drop/delay/dup decision for the N-th op
// of a rank is a pure function of the seed — two harnesses with the same
// seed agree op for op, and a different seed disagrees somewhere.
func TestDeterministicSchedule(t *testing.T) {
	decisions := func(seed int64) []bool {
		h := NewHarness(2, Config{Seed: seed, Drop: 0.3})
		tr := h.Wrap(comm.NewMesh(2).Endpoint(0))
		out := make([]bool, 200)
		for i := range out {
			out[i] = tr.roll(uint64(i), 0x01) < 0.3
		}
		return out
	}
	a, b := decisions(42), decisions(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed disagrees at op %d", i)
		}
	}
	c := decisions(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestDropRate(t *testing.T) {
	mesh := comm.NewMesh(2)
	h := NewHarness(2, Config{Seed: 7, Drop: 0.5})
	src := h.Wrap(mesh.Endpoint(0))
	dst := mesh.Endpoint(1)
	const n = 400
	for i := 0; i < n; i++ {
		if err := src.Send(1, comm.Message{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for {
		if _, err := dst.Recv(50 * time.Millisecond); err != nil {
			break
		}
		got++
	}
	drops := int(h.Stats().Drops)
	if got+drops != n {
		t.Fatalf("%d delivered + %d dropped != %d sent", got, drops, n)
	}
	if drops < n/4 || drops > 3*n/4 {
		t.Fatalf("drop rate wildly off: %d of %d", drops, n)
	}
}

func TestCrashWindowAndRecovery(t *testing.T) {
	mesh := comm.NewMesh(2)
	h := NewHarness(2, Config{Seed: 1, Crashes: []CrashEvent{{Rank: 0, AtOp: 5, RecoverAfterOps: 10}}})
	tr := h.Wrap(mesh.Endpoint(0))
	// Ops 0..4 healthy.
	for i := 0; i < 5; i++ {
		if err := tr.Send(1, comm.Message{}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Ops 5..14 down.
	sawCrash := 0
	for i := 0; i < 10; i++ {
		if err := tr.Send(1, comm.Message{}); errors.Is(err, ErrCrashed) {
			sawCrash++
		}
	}
	if sawCrash != 10 {
		t.Fatalf("crashed ops = %d, want 10", sawCrash)
	}
	if err := tr.Send(1, comm.Message{}); err != nil {
		t.Fatalf("post-recovery send: %v", err)
	}
}

func TestPartitionDropsCrossTraffic(t *testing.T) {
	mesh := comm.NewMesh(4)
	h := NewHarness(4, Config{Seed: 3, Partition: &Partition{Ranks: []int{2, 3}, FromOp: 0, Ops: 0}})
	t02 := h.Wrap(mesh.Endpoint(0))
	if err := t02.Send(2, comm.Message{Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := mesh.Endpoint(2).Recv(30 * time.Millisecond); err == nil {
		t.Fatal("cross-partition message delivered")
	}
	// Same-side traffic flows.
	if err := t02.Send(1, comm.Message{Payload: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if _, err := mesh.Endpoint(1).Recv(time.Second); err != nil {
		t.Fatalf("same-side message lost: %v", err)
	}
	if h.Stats().Partitioned == 0 {
		t.Fatal("partition counter not incremented")
	}
}

func TestDelayDeliversLate(t *testing.T) {
	mesh := comm.NewMesh(2)
	h := NewHarness(2, Config{Seed: 9, DelayProb: 1, Delay: 30 * time.Millisecond})
	src := h.Wrap(mesh.Endpoint(0))
	dst := mesh.Endpoint(1)
	if err := src.Send(1, comm.Message{Payload: []byte("late")}); err != nil {
		t.Fatal(err)
	}
	msg, err := dst.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("delayed message never arrived: %v", err)
	}
	if string(msg.Payload) != "late" {
		t.Fatalf("payload corrupted: %q", msg.Payload)
	}
	if h.Stats().Delays != 1 {
		t.Fatalf("delays = %d, want 1", h.Stats().Delays)
	}
}

func TestDupDeliversTwice(t *testing.T) {
	mesh := comm.NewMesh(2)
	h := NewHarness(2, Config{Seed: 11, Dup: 1})
	src := h.Wrap(mesh.Endpoint(0))
	dst := mesh.Endpoint(1)
	if err := src.Send(1, comm.Message{Seq: 5, Payload: []byte("twin")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		msg, err := dst.Recv(time.Second)
		if err != nil {
			t.Fatalf("copy %d missing: %v", i, err)
		}
		if msg.Seq != 5 || string(msg.Payload) != "twin" {
			t.Fatalf("copy %d corrupted: %+v", i, msg)
		}
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	mesh := comm.NewMesh(2)
	h := NewHarness(2, Config{Seed: 13, Corrupt: 1})
	src := h.Wrap(mesh.Endpoint(0))
	dst := mesh.Endpoint(1)
	orig := []byte{0x00, 0xFF, 0x55, 0xAA, 0x12, 0x34}
	sent := append([]byte(nil), orig...)
	if err := src.Send(1, comm.Message{Payload: sent}); err != nil {
		t.Fatal(err)
	}
	// Corruption copies before flipping — the sender's buffer (the
	// cluster's resend ring) must stay intact.
	for i := range sent {
		if sent[i] != orig[i] {
			t.Fatal("corruption mutated the sender's buffer")
		}
	}
	msg, err := dst.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	diffBits := 0
	for i := range orig {
		diffBits += bits.OnesCount8(msg.Payload[i] ^ orig[i])
	}
	if diffBits != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diffBits)
	}
	if h.Stats().Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", h.Stats().Corruptions)
	}
}

// TestCorruptDeterministic: which messages are corrupted, and which bit
// flips, is a pure function of the seed.
func TestCorruptDeterministic(t *testing.T) {
	run := func(seed int64) [][]byte {
		mesh := comm.NewMesh(2)
		h := NewHarness(2, Config{Seed: seed, Corrupt: 0.5})
		src := h.Wrap(mesh.Endpoint(0))
		dst := mesh.Endpoint(1)
		var out [][]byte
		for i := 0; i < 50; i++ {
			if err := src.Send(1, comm.Message{Seq: uint64(i), Payload: []byte{1, 2, 3, 4}}); err != nil {
				t.Fatal(err)
			}
			msg, err := dst.Recv(time.Second)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, append([]byte(nil), msg.Payload...))
		}
		return out
	}
	a, b := run(21), run(21)
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatalf("same seed produced different corruption at message %d", i)
		}
	}
}
