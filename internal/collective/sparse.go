package collective

import (
	"encoding/binary"
	"math"
	"math/bits"

	"fftgrad/internal/pack"
)

// The paper's conclusion calls for "a bandwidth-efficient allreduce with
// sparse support" — it had to fall back to allgather because MPI/NCCL
// offer none, which makes every worker decompress p messages and pay
// (p−1)·m wire volume. SparseAllreduce is that missing collective.

// SparseAllreduce sums packed sparse vectors (all of length s.N)
// element-wise across all ranks and returns the identical packed result
// on every rank plus the bytes this rank moved. The union of all ranks'
// masks defines the result's mask; zero-valued sums are kept if any rank
// contributed the position (bitmap semantics, not value semantics). The
// ring and tree strategies run the ring schedule (the tree gains nothing
// on a sum that every rank needs).
//
// The hierarchical strategy is where index deduplication pays: each
// group leader ORs its members' bitmaps and sums their values *before*
// anything crosses the inter-group fabric, so duplicate indices chosen
// by several ranks in one group cross the slow link once, as one
// aggregated sparse block per group, instead of once per rank. The
// result is numerically identical to the ring schedule (floating-point
// sums are reassociated; with disjoint Partitioner contributions even
// bit-identical, since each position has exactly one contributor).
func (e *Exchanger) SparseAllreduce(s *pack.Sparse) (*pack.Sparse, int) {
	if e.cfg.Strategy == Hier {
		return e.hierSparseAllreduce(s)
	}
	return e.ringSparseAllreduce(s)
}

// sparseHeader is the framing appendSparse adds around a segment's
// bitmap and values; the volume accounting counts the segment alone.
const sparseHeader = 8

// ringSparseAllreduce is a ring reduce-scatter + allgather over sparse
// segments of the index space, which merge (bitmap OR + value add) as
// they travel, so each rank receives the already-reduced sum once. Chunk
// i covers positions [bounds[i], bounds[i+1]), aligned to 64-bit bitmap
// words so a segment is a slice of the mask. At step t every rank sends
// chunk rank−t to its successor and receives chunk rank−t−1 from its
// predecessor: the first p−1 steps add what arrives (after them rank r
// holds the complete sum of chunk r+1), the last p−1 replace with it.
func (e *Exchanger) ringSparseAllreduce(s *pack.Sparse) (*pack.Sparse, int) {
	cm := e.cm
	p, rank, n := cm.P(), cm.RankID(), s.N
	acc := make([]float32, n)
	s.Unpack(acc)
	mask := append([]uint64(nil), s.Bitmap...)
	bounds := make([]int, p+1)
	for i := range bounds {
		bounds[i] = i * len(mask) / p * 64
	}
	bounds[p] = n

	prev := (rank + p - 1) % p
	moved := 0
	for step := 0; step < 2*(p-1); step++ {
		send := (rank + 2*p - step) % p
		recv := (send + p - 1) % p
		wire := appendSegment(e.groupBuf[:0], acc, mask, bounds[send], bounds[send+1])
		e.groupBuf = wire
		cm.Post(wire)
		cm.Barrier() // every rank's segment staged

		in := cm.Peek(prev)
		lo, hi := bounds[recv], bounds[recv+1]
		reduce := step < p-1
		if !reduce {
			clear(acc[lo:hi])
			clear(mask[lo>>6 : (hi+63)>>6])
		}
		mergeSparse(acc[lo:hi], mask[lo>>6:], in, reduce)
		cm.AccountWire(len(wire)-sparseHeader, len(in)-sparseHeader)
		moved += len(wire) - sparseHeader
		cm.Barrier() // all reads done before slots are reused
	}
	return pack.PackMask(acc, mask), moved
}

// appendSegment packs positions [lo, hi) of the dense view (lo a
// multiple of 64) and appends the packed segment to dst.
func appendSegment(dst []byte, acc []float32, mask []uint64, lo, hi int) []byte {
	seg := pack.PackMask(acc[lo:hi], mask[lo>>6:(hi+63)>>6])
	return appendSparse(dst, seg.Bitmap, seg.Values)
}

// appendSparse serializes [u32 words | bitmap | u32 nvals | values].
func appendSparse(dst []byte, bitmap []uint64, values []float32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(bitmap)))
	for _, w := range bitmap {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(values)))
	for _, v := range values {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// mergeSparse deserializes src, ORing the bitmap into mask and, at the
// masked positions of acc, adding the values (the dedup/sum step) or,
// with add false, storing them.
func mergeSparse(acc []float32, mask []uint64, src []byte, add bool) {
	words := int(binary.LittleEndian.Uint32(src))
	off := 4
	base := 0
	vi := off + 8*words + 4
	for w := 0; w < words; w++ {
		word := binary.LittleEndian.Uint64(src[off+8*w:])
		mask[w] |= word
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			v := math.Float32frombits(binary.LittleEndian.Uint32(src[vi:]))
			if add {
				v = acc[i] + v
			}
			acc[i] = v
			vi += 4
			word &= word - 1
		}
		base += 64
	}
}

func (e *Exchanger) hierSparseAllreduce(s *pack.Sparse) (*pack.Sparse, int) {
	cm := e.cm
	p := cm.P()
	g := e.cfg.GroupSize
	rank := cm.RankID()
	leader, lo, hi := e.group()
	isLeader := rank == leader
	n := s.N
	moved := 0

	wire := appendSparse(e.groupBuf[:0], s.Bitmap, s.Values)
	e.groupBuf = wire
	cm.Post(wire)
	cm.Barrier() // all contributions staged

	// Group leaders dedup: one bitmap-OR + value-sum per group, before
	// the inter-group exchange.
	var acc []float32
	var mask []uint64
	if isLeader {
		acc = make([]float32, n)
		mask = make([]uint64, pack.BitmapWords(n))
		for r := lo; r < hi; r++ {
			m := cm.Peek(r)
			mergeSparse(acc, mask, m, true)
			if r != rank {
				cm.AccountWire(0, len(m))
				moved += len(m)
			}
		}
	} else {
		cm.AccountWire(len(wire), 0)
		moved += len(wire)
	}
	cm.Barrier() // leaders done reading member slots
	var groupAgg []byte
	if isLeader {
		groupAgg = appendSegment(e.fullBuf[:0], acc, mask, 0, n)
		e.fullBuf = groupAgg
		cm.Post(groupAgg)
	}
	cm.Barrier() // group aggregates staged

	// Leaders exchange aggregates (ring among leaders) and reduce.
	if isLeader {
		for gl := 0; gl < p; gl += g {
			if gl == rank {
				continue
			}
			m := cm.Peek(gl)
			mergeSparse(acc, mask, m, true)
			cm.AccountWire(len(groupAgg), len(m))
			moved += len(groupAgg) + len(m)
		}
	}
	cm.Barrier() // leaders done reading each other's aggregates
	var finalWire []byte
	if isLeader {
		finalWire = appendSegment(nil, acc, mask, 0, n)
		cm.Post(finalWire)
	}
	cm.Barrier() // final sums staged

	// Everyone decodes its leader's final sum — identical bytes within a
	// group, identical values everywhere.
	src := cm.Peek(leader)
	outAcc := make([]float32, n)
	outMask := make([]uint64, pack.BitmapWords(n))
	mergeSparse(outAcc, outMask, src, true)
	if isLeader {
		cm.AccountWire((hi-lo-1)*len(src), 0)
		moved += (hi - lo - 1) * len(src)
	} else {
		cm.AccountWire(0, len(src))
		moved += len(src)
	}
	cm.Barrier() // all reads done before slots are reused
	return pack.PackMask(outAcc, outMask), moved
}
