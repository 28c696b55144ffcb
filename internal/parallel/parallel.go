// Package parallel provides small work-partitioning helpers used by the
// numeric kernels in this repository. All compression primitives in the
// paper (precision conversion, FFT, top-k selection, packing) are described
// as embarrassingly parallel GPU kernels; on the CPU we express the same
// structure as a blocked parallel-for over a persistent worker pool.
//
// # Worker pool
//
// Dispatching a goroutine per chunk (the pre-pool design) pays goroutine
// start latency and a closure allocation on every call — measurable when
// the compression pipeline issues dozens of parallel-fors per iteration.
// Instead the package keeps one long-lived helper goroutine per worker,
// woken through a shared buffered channel ("futex-style": a wake is a
// non-blocking channel send, a sleep is a blocking receive). A dispatch
// publishes a job, wakes up to chunks-1 helpers, then the caller claims
// chunks itself; chunk claiming is one atomic add, and the last finisher
// signals a per-job completion channel the caller blocks on. Work below
// the grain threshold never touches the pool and runs inline.
//
// The typed ForGrain1/2/3 variants stay allocation-free on BOTH the serial
// and the pooled path: per-context-type job boxes are recycled through
// free lists, so the steady state of a hot loop performs no heap
// allocation no matter how the work is partitioned or which P it runs on.
package parallel

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"fftgrad/internal/scratch"
)

// minParallelWork is the smallest per-invocation element count for which
// parallel dispatch pays for itself. Below it, For2 and For3 run serially.
const minParallelWork = 4096

// workers caches the degree of parallelism at package init instead of
// consulting runtime.GOMAXPROCS on every call (the pre-pool design did,
// putting a runtime call on every kernel invocation).
var workers atomic.Int32

func init() { workers.Store(int32(runtime.GOMAXPROCS(0))) }

// Workers returns the degree of parallelism used by this package. It is a
// single atomic load of the value cached at init (or set by SetWorkers).
func Workers() int { return int(workers.Load()) }

// SetWorkers overrides the degree of parallelism and returns the previous
// value, so tests and benchmarks can pin partitioning deterministically:
//
//	defer parallel.SetWorkers(parallel.SetWorkers(4))
//
// n < 1 is clamped to 1 (serial). Raising the value starts any missing
// helper goroutines; lowering it only narrows future partitions — helpers
// are never torn down, idle ones just stay parked on the queue.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	prev := int(workers.Swap(int32(n)))
	if n > 1 {
		ensureHelpers(n - 1)
	}
	return prev
}

// queue carries jobs to parked helpers. A dispatch performs up to
// chunks-1 non-blocking sends; a full queue means every helper is already
// awake and draining, so dropped wakes are harmless (the job's chunks are
// claimed through its atomic cursor, not through queue entries).
var queue = make(chan *job, 256)

var (
	helperMu sync.Mutex
	helpers  int
	poolOnce sync.Once
)

// ensurePool lazily starts the steady-state helper complement on first
// parallel dispatch.
func ensurePool() {
	poolOnce.Do(func() { ensureHelpers(Workers() - 1) })
}

// ensureHelpers grows the helper set to at least want long-lived
// goroutines. One goroutine per worker: the caller of a dispatch always
// participates, so w workers need w-1 helpers.
func ensureHelpers(want int) {
	helperMu.Lock()
	for helpers < want {
		go helperLoop()
		helpers++
	}
	helperMu.Unlock()
}

func helperLoop() {
	for j := range queue {
		j.work()
	}
}

// runner is the monomorphic view of a typed job box the helpers invoke.
type runner interface{ runChunk(lo, hi int) }

// job is one parallel-for dispatch flowing through the pool. It is
// embedded in a typed box and recycled, so the fields double as the
// stale-wake guard: helpers that receive a pointer to an already-finished
// (or recycled) job observe an exhausted claim cursor and back off without
// touching any other field.
type job struct {
	runner  runner
	n, size int

	// state packs the claim cursor (high 32 bits, counting claim attempts)
	// over the chunk count (low 32 bits). Claiming is a single atomic add;
	// an attempt number >= the chunk count means the job is exhausted.
	// Observing the dispatch-time store of this word is also what gives a
	// woken helper happens-before with the plain field writes above.
	state   atomic.Uint64
	pending atomic.Int32  // chunks not yet finished
	done    chan struct{} // buffered(1); the last finisher signals
}

// work claims and runs chunks until the job is exhausted.
func (j *job) work() {
	for {
		v := j.state.Add(1 << 32)
		c := int(v>>32) - 1
		if c >= int(v&0xffffffff) {
			return
		}
		lo, hi := ChunkBounds(c, j.size, j.n)
		j.runner.runChunk(lo, hi)
		if j.pending.Add(-1) == 0 {
			j.done <- struct{}{}
		}
	}
}

// dispatch publishes the job, wakes helpers, contributes the calling
// goroutine, and blocks until every chunk has finished. pending must be
// stored before state: a stale helper that claims a chunk the instant the
// cursor resets must already see the full pending count, or it could drive
// pending to zero and release the caller while chunks are still running.
func (j *job) dispatch(r runner, n, size, chunks int) {
	if j.done == nil {
		j.done = make(chan struct{}, 1) // first dispatch of a fresh box
	}
	j.runner = r
	j.n, j.size = n, size
	j.pending.Store(int32(chunks))
	j.state.Store(uint64(uint32(chunks)))
	for i := 1; i < chunks; i++ {
		select {
		case queue <- j:
		default:
			i = chunks // queue full: all helpers are awake already
		}
	}
	j.work()
	<-j.done
}

// box1/box2/box3 pair a recycled job with one, two or three typed context
// values, so a pooled dispatch moves the context to the helpers without
// boxing it into an interface (which would allocate per call). Each arity
// has its own box instead of bundling through a single-context adapter: a
// func literal inside a generic function captures the instantiation
// dictionary and costs one heap allocation per call, so the arities must
// not share glue code through generic literals.
type box1[A any] struct {
	job
	a    A
	body func(A, int, int)
}

func (b *box1[A]) runChunk(lo, hi int) { b.body(b.a, lo, hi) }

type box2[A, B any] struct {
	job
	a    A
	b    B
	body func(A, B, int, int)
}

func (b *box2[A, B]) runChunk(lo, hi int) { b.body(b.a, b.b, lo, hi) }

type box3[A, B, C any] struct {
	job
	a    A
	b    B
	c    C
	body func(A, B, C, int, int)
}

func (b *box3[A, B, C]) runChunk(lo, hi int) { b.body(b.a, b.b, b.c, lo, hi) }

// boxLists maps a box type to its *scratch.FreeList. A free list, not a
// sync.Pool: a pool's Get misses when the goroutine has moved to another P
// since its Put, and a collection empties it, so a dispatch would
// allocate now and then. The map is touched only on the pooled path, and
// its steady state is one lock-free load per dispatch.
var boxLists sync.Map // reflect.Type -> *scratch.FreeList[*T]

// grab returns T's free list and a box from it (freshly allocated on the
// cold path).
func grab[T any]() (*scratch.FreeList[*T], *T) {
	key := reflect.TypeFor[T]()
	p, ok := boxLists.Load(key)
	if !ok {
		p, _ = boxLists.LoadOrStore(key, new(scratch.FreeList[*T]))
	}
	l := p.(*scratch.FreeList[*T])
	if b, ok := l.Get(); ok {
		return l, b
	}
	return l, new(T)
}

// ForGrain splits [0,n) into contiguous chunks and invokes body(lo, hi)
// for each chunk, possibly concurrently. body must be safe to run
// concurrently on disjoint ranges. No chunk is smaller than grain except
// possibly the last, and work below grain runs serially on the calling
// goroutine. It blocks until all chunks complete.
func ForGrain(n, grain int, body func(lo, hi int)) {
	ForGrain1(n, grain, body, func(f func(int, int), lo, hi int) { f(lo, hi) })
}

// For2 is ForGrain at grain minParallelWork, threading two explicit
// context values to the body instead of relying on closure capture. A
// func literal that captures nothing compiles to a static funcval, so —
// unlike ForGrain, whose escaping body closure costs one heap allocation
// per call — For2 with a capture-free literal allocates nothing on either
// the serial or the pooled path. Hot loops that must stay allocation-free
// in steady state (the compression pipeline) use these variants; cold
// callers can keep the more readable ForGrain.
func For2[A, B any](n int, a A, b B, body func(a A, b B, lo, hi int)) {
	ForGrain2(n, minParallelWork, a, b, body)
}

// For3 is For2 with three context values.
func For3[A, B, C any](n int, a A, b B, c C, body func(a A, b B, c C, lo, hi int)) {
	ForGrain3(n, minParallelWork, a, b, c, body)
}

// ForGrain1 is ForGrain threading one context value; see For2.
func ForGrain1[A any](n, grain int, a A, body func(a A, lo, hi int)) {
	chunks, size := Plan(n, grain)
	if chunks == 0 {
		return
	}
	if chunks == 1 {
		body(a, 0, n)
		return
	}
	ensurePool()
	free, b := grab[box1[A]]()
	b.a, b.body = a, body
	b.dispatch(b, n, size, chunks)
	var zero A
	b.a, b.body, b.runner = zero, nil, nil // don't retain caller data in the list
	free.Put(b)
}

// ForGrain2 is ForGrain threading two context values; see For2.
func ForGrain2[A, B any](n, grain int, a A, bv B, body func(a A, b B, lo, hi int)) {
	chunks, size := Plan(n, grain)
	if chunks == 0 {
		return
	}
	if chunks == 1 {
		body(a, bv, 0, n)
		return
	}
	ensurePool()
	free, b := grab[box2[A, B]]()
	b.a, b.b, b.body = a, bv, body
	b.dispatch(b, n, size, chunks)
	var za A
	var zb B
	b.a, b.b, b.body, b.runner = za, zb, nil, nil
	free.Put(b)
}

// ForGrain3 is ForGrain threading three context values; see For2.
func ForGrain3[A, B, C any](n, grain int, a A, bv B, cv C, body func(a A, b B, c C, lo, hi int)) {
	chunks, size := Plan(n, grain)
	if chunks == 0 {
		return
	}
	if chunks == 1 {
		body(a, bv, cv, 0, n)
		return
	}
	ensurePool()
	free, b := grab[box3[A, B, C]]()
	b.a, b.b, b.c, b.body = a, bv, cv, body
	b.dispatch(b, n, size, chunks)
	var za A
	var zb B
	var zc C
	b.a, b.b, b.c, b.body, b.runner = za, zb, zc, nil, nil
	free.Put(b)
}

// Plan returns the partition ForGrain would use for n elements as a
// (chunks, size) pair: chunk c covers [c*size, min((c+1)*size, n)).
// Two-pass algorithms that must see the same partition in both passes can
// derive every boundary arithmetically, without allocating a chunk list.
func Plan(n, grain int) (chunks, size int) {
	if n <= 0 {
		return 0, 0
	}
	if grain < 1 {
		grain = 1
	}
	p := Workers()
	if p == 1 || n <= grain {
		return 1, n
	}
	chunks = (n + grain - 1) / grain
	if chunks > p {
		chunks = p
	}
	size = (n + chunks - 1) / chunks
	// size*chunks can overshoot n by a whole chunk when n is just past a
	// multiple; recount so every chunk is non-empty.
	chunks = (n + size - 1) / size
	return chunks, size
}

// ChunkBounds returns chunk c's [lo, hi) range under a Plan(n, grain)
// partition of the given size.
func ChunkBounds(c, size, n int) (lo, hi int) {
	lo = c * size
	hi = lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Run executes the given thunks concurrently and waits for all of them.
// It is a cold-path helper (setup code, tests); the hot kernels use the
// pooled For variants.
func Run(fns ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	wg.Wait()
}
