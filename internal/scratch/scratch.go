// Package scratch provides typed, size-classed buffer pools for the hot
// compression path, and FreeList for reusable values that must never be
// missed. The paper's premise (Sec. 3.3, Eq. 1-4) is that
// compression only wins when its primitives are cheap relative to the
// network; on repeated training steps the arithmetic is cheap but a naive
// implementation pays for 10+ fresh slices per gradient per iteration, so
// GC pressure dominates Tf/Tp/Ts. A buffer with an owner is the owner's:
// the transform codec keeps its model-size spectrum, work array and
// select state in its codecWork, sized once, and hands the DCT plan the
// buffers it works in. The temporaries no one owns — the Top-k, QSGD and
// TernGrad codecs' codes and masks, the dense decode behind a codec that
// cannot accumulate — are borrowed from these pools, so a steady-state
// round trip of every codec is allocation-free. A pool keeps its buffers per P: a
// Get on another P than the last Put can miss and allocate, and a
// collection empties the pools; a FreeList has neither behaviour.
//
// # Usage and ownership
//
// Get functions return a *[]T "box" whose slice has exactly the requested
// length (contents are NOT zeroed — callers must fully overwrite or zero
// what they read). The box pointer, not the slice, is what returns to the
// pool, so steady-state Get/Put performs no heap allocation:
//
//	buf := scratch.Float64s(n)
//	defer scratch.PutFloat64s(buf)
//	sig := *buf // len(sig) == n
//
// A borrowed buffer must not be referenced after Put, must not be put
// twice, and must not be resliced beyond its capacity. Buffers may be
// handed between goroutines, but exactly one owner may Put.
//
// Buffers are bucketed by power-of-two capacity so a Put from one call
// site serves Gets of any length in the same class. Requests larger than
// 2^maxClass elements fall back to plain make and are never pooled.
package scratch

import (
	"math/bits"
	"sync"
)

// maxClass bounds pooled capacities at 2^maxClass elements per buffer
// (128M elements; a 1 GiB []float64). Anything larger bypasses the pool.
const maxClass = 27

// pool is one element type's set of size-classed sync.Pools. Class c
// holds buffers of capacity exactly 2^c.
type pool[T any] struct {
	classes [maxClass + 1]sync.Pool
}

// class returns the size class for a request of n elements, or -1 when
// the request is too large to pool.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c > maxClass {
		return -1
	}
	return c
}

// get returns a box whose slice has length n and power-of-two capacity.
func (p *pool[T]) get(n int) *[]T {
	c := class(n)
	if c < 0 {
		b := make([]T, n)
		return &b
	}
	if v := p.classes[c].Get(); v != nil {
		b := v.(*[]T)
		*b = (*b)[:n]
		return b
	}
	b := make([]T, n, 1<<c)
	return &b
}

// put returns a box to its size class. Boxes with non-power-of-two or
// oversized capacity (from the fallback path) are dropped for the GC.
func (p *pool[T]) put(b *[]T) {
	if b == nil {
		return
	}
	c := cap(*b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cl := bits.TrailingZeros(uint(c))
	if cl > maxClass {
		return
	}
	*b = (*b)[:0]
	p.classes[cl].Put(b)
}

var (
	f64Pool pool[float64]
	f32Pool pool[float32]
	u32Pool pool[uint32]
	u64Pool pool[uint64]
	intPool pool[int]
)

// Float64s borrows a []float64 of length n. Contents are unspecified.
func Float64s(n int) *[]float64 { return f64Pool.get(n) }

// PutFloat64s returns a box borrowed from Float64s.
func PutFloat64s(b *[]float64) { f64Pool.put(b) }

// Float32s borrows a []float32 of length n. Contents are unspecified.
func Float32s(n int) *[]float32 { return f32Pool.get(n) }

// PutFloat32s returns a box borrowed from Float32s.
func PutFloat32s(b *[]float32) { f32Pool.put(b) }

// Uint32s borrows a []uint32 of length n. Contents are unspecified.
func Uint32s(n int) *[]uint32 { return u32Pool.get(n) }

// PutUint32s returns a box borrowed from Uint32s.
func PutUint32s(b *[]uint32) { u32Pool.put(b) }

// Uint64s borrows a []uint64 of length n. Contents are unspecified.
func Uint64s(n int) *[]uint64 { return u64Pool.get(n) }

// PutUint64s returns a box borrowed from Uint64s.
func PutUint64s(b *[]uint64) { u64Pool.put(b) }

// Ints borrows a []int of length n. Contents are unspecified.
func Ints(n int) *[]int { return intPool.get(n) }

// PutInts returns a box borrowed from Ints.
func PutInts(b *[]int) { intPool.put(b) }

// FreeList is a stack of reusable values for callers that must not miss:
// unlike the pools, a value put back on one P is there for the next Get on
// any other, and a collection does not empty it. It keeps every value it
// is given, so it suits values whose number is bounded by how many of
// their uses overlap. The zero FreeList is empty and ready to use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get pops the value put last, reporting false when the list is empty.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	if i := len(l.free) - 1; i >= 0 {
		var zero T
		v, ok = l.free[i], true
		l.free[i] = zero
		l.free = l.free[:i]
	}
	l.mu.Unlock()
	return v, ok
}

// Put pushes v.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
