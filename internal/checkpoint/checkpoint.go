// Package checkpoint serializes and restores training state — model
// parameters, optimizer momentum, and progress counters — with integrity
// checking. Fault tolerance is the selling point of the PS scheme the
// paper's Background highlights; periodic checkpoints give the BSP
// trainer the same property: kill any run, reload, continue bit-exact.
//
// Format (little-endian):
//
//	magic "FGCK" | u32 version | u64 epoch | u64 iter
//	| u32 paramLen | params (f32...) | u32 velLen | velocity (f32...)
//	| u32 crc32 (IEEE, over everything before it)
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
)

const (
	magic   = "FGCK"
	version = 1
)

// State is a point-in-time snapshot of a training run.
type State struct {
	Epoch    int64
	Iter     int64
	Params   []float32
	Velocity []float32 // optional; empty when the optimizer is stateless
}

// Capture snapshots a network and its optimizer.
func Capture(net *nn.Network, sgd *optim.SGD, epoch, iter int64) *State {
	return CaptureInto(nil, net, sgd, epoch, iter)
}

// CaptureInto is Capture into dst's vectors, which grow only when too
// short, so a caller that recycles its states captures without
// allocating. A nil dst captures into a new State. It returns the state
// written.
func CaptureInto(dst *State, net *nn.Network, sgd *optim.SGD, epoch, iter int64) *State {
	if dst == nil {
		dst = new(State)
	}
	n := net.NumParams()
	dst.Epoch, dst.Iter = epoch, iter
	dst.Params = net.GetParams(slices.Grow(dst.Params[:0], n)[:n])
	dst.Velocity = dst.Velocity[:0]
	if sgd != nil {
		dst.Velocity = sgd.AppendState(dst.Velocity)
	}
	return dst
}

// Clone returns a deep copy of s (nil for a nil s).
func (s *State) Clone() *State {
	if s == nil {
		return nil
	}
	c := *s
	c.Params = slices.Clone(s.Params)
	c.Velocity = slices.Clone(s.Velocity)
	return &c
}

// Apply restores the snapshot into a network and, when sgd is non-nil,
// the optimizer built for it. It checks both lengths before it writes
// anything: Params must be NumParams long and Velocity empty or as long,
// so a mismatched snapshot returns an error with the network and the
// optimizer as they were.
func (s *State) Apply(net *nn.Network, sgd *optim.SGD) error {
	n := net.NumParams()
	if len(s.Params) != n {
		return fmt.Errorf("checkpoint: %d params for a %d-param model", len(s.Params), n)
	}
	if len(s.Velocity) != 0 && len(s.Velocity) != n {
		return fmt.Errorf("checkpoint: %d velocity values for a %d-param model", len(s.Velocity), n)
	}
	net.SetParams(s.Params)
	if sgd != nil && len(s.Velocity) > 0 {
		sgd.Restore(s.Velocity)
	}
	return nil
}

// Write serializes the state to w.
func Write(w io.Writer, s *State) error {
	var buf bytes.Buffer
	buf.WriteString(magic)
	le := binary.LittleEndian
	b8 := make([]byte, 8)
	le.PutUint32(b8[:4], version)
	buf.Write(b8[:4])
	le.PutUint64(b8, uint64(s.Epoch))
	buf.Write(b8)
	le.PutUint64(b8, uint64(s.Iter))
	buf.Write(b8)
	writeF32s := func(xs []float32) {
		le.PutUint32(b8[:4], uint32(len(xs)))
		buf.Write(b8[:4])
		for _, v := range xs {
			le.PutUint32(b8[:4], math.Float32bits(v))
			buf.Write(b8[:4])
		}
	}
	writeF32s(s.Params)
	writeF32s(s.Velocity)

	sum := crc32.ChecksumIEEE(buf.Bytes())
	le.PutUint32(b8[:4], sum)
	buf.Write(b8[:4])
	_, err := w.Write(buf.Bytes())
	return err
}

// Read deserializes a state from r, verifying magic, version and CRC.
func Read(r io.Reader) (*State, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(magic)+4+16+8+4 {
		return nil, fmt.Errorf("checkpoint: truncated (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	le := binary.LittleEndian
	if got, want := le.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("checkpoint: CRC mismatch (%08x vs %08x)", got, want)
	}
	if string(body[:4]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", body[:4])
	}
	body = body[4:]
	if v := le.Uint32(body); v != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	body = body[4:]
	s := &State{}
	s.Epoch = int64(le.Uint64(body))
	body = body[8:]
	s.Iter = int64(le.Uint64(body))
	body = body[8:]

	readF32s := func() ([]float32, error) {
		if len(body) < 4 {
			return nil, fmt.Errorf("checkpoint: truncated length field")
		}
		n := int(le.Uint32(body))
		body = body[4:]
		if len(body) < n*4 {
			return nil, fmt.Errorf("checkpoint: truncated payload (%d floats claimed)", n)
		}
		out := make([]float32, n)
		for i := range out {
			out[i] = math.Float32frombits(le.Uint32(body[i*4:]))
		}
		body = body[n*4:]
		return out, nil
	}
	if s.Params, err = readF32s(); err != nil {
		return nil, err
	}
	if s.Velocity, err = readF32s(); err != nil {
		return nil, err
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(body))
	}
	return s, nil
}
