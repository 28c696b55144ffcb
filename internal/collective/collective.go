// Package collective owns the gradient exchange *strategy*: which
// schedule moves the compressed payloads between ranks, decoupled from
// the comm primitives that stage the bytes. The paper's Sec. 3.3 cost
// model says compression wins only when the collective's volume and
// latency terms are beaten; at 64–1024 ranks the flat ring allgather's
// (p−1) latency terms and p·m received bytes dominate, so this package
// adds the schedules that keep the crossover favorable at scale:
//
//   - Ring: the flat schedule comm implements natively (the baseline).
//   - Hierarchical: intra-group gather → inter-group exchange among the
//     group leaders → intra-group broadcast, mirroring the analytic
//     shape of netsim.Hierarchical (DGC's bandwidth-at-scale regime).
//   - Tree: binomial gather + broadcast, ⌈log2 p⌉ rounds — the latency
//     winner for small (aggressively compressed) messages.
//
// On top of any strategy, gradient bucketing (bucket.go) splits the flat
// payload into fixed-byte buckets exchanged in flight while later
// buckets are still being compressed.
//
// All schedules run over comm's Post/Peek/Barrier staging substrate, so
// every strategy returns bit-identical message sets in rank order — a
// run that switches strategy changes wall time and wire volume, never
// arithmetic.
package collective

import (
	"fmt"

	"fftgrad/internal/comm"
)

// Strategy names an exchange schedule.
type Strategy string

const (
	// Ring is the flat ring allgather/broadcast (the default).
	Ring Strategy = "ring"
	// Hier is the hierarchical group schedule.
	Hier Strategy = "hier"
	// Tree is the binomial-tree schedule.
	Tree Strategy = "tree"
	// Gossip is decentralized ring-neighbor averaging (D-PSGD style):
	// no root, no global barrier — each rank mixes with its two nearest
	// live ring neighbors under Metropolis weights. It is not an
	// allgather (ranks intentionally see different message sets), so it
	// runs only on the failure-aware path, where cluster.GossipExchange
	// implements it over the point-to-point mesh; the barrier-based
	// Exchanger rejects it.
	Gossip Strategy = "gossip"
)

// Config selects and parameterizes the exchange strategy.
type Config struct {
	// Strategy picks the schedule; empty means Ring.
	Strategy Strategy
	// GroupSize is the hierarchical group width (ranks per leader),
	// matching netsim.Hierarchical.RanksPerHost. Default 4. The tuning
	// rule (DESIGN.md Sec. 12): set it to the rank count per
	// shared-bandwidth domain, or √p when the fabric is uniform — that
	// equalizes the intra and inter stage volumes.
	GroupSize int
	// BucketBytes > 0 splits the flat gradient into fixed-byte buckets
	// (of raw FP32 payload) that are compressed and exchanged in flight
	// with compute/comm overlap. 0 keeps the monolithic exchange.
	BucketBytes int
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = Ring
	}
	if c.GroupSize <= 0 {
		c.GroupSize = 4
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch c.Strategy {
	case "", Ring, Hier, Tree, Gossip:
	default:
		return fmt.Errorf("collective: unknown strategy %q (want ring, hier, tree or gossip)", c.Strategy)
	}
	if c.BucketBytes < 0 {
		return fmt.Errorf("collective: negative BucketBytes %d", c.BucketBytes)
	}
	if c.Strategy == Gossip && c.BucketBytes > 0 {
		return fmt.Errorf("collective: gossip exchanges whole gradients with ring neighbors; BucketBytes does not apply")
	}
	return nil
}

// Exchanger is one rank's strategy-aware collective endpoint. Like
// comm.Comm it must be driven by exactly one goroutine, and every rank
// of the cluster must call the same methods in the same order.
type Exchanger struct {
	cm  *comm.Comm
	cfg Config

	out [][]byte // reused result slice, rewritten by the next Allgather

	// Hierarchical scratch (leaders only): the group block and the
	// assembled full set. fullBuf is rewritten only after the next
	// call's first barrier, by which point every rank has finished with
	// the previous result — same aliasing discipline as comm.Allgather.
	groupBuf, fullBuf []byte

	// Tree scratch, double-buffered by call parity: the root's gather
	// buffer is aliased by every rank's previous result and the root
	// starts rewriting it before the next call's first barrier.
	treeBuf [2][]byte
	calls   int
}

// New returns the exchanger for cfg on endpoint cm. A nil cfg selects
// the flat ring strategy.
func New(cfg *Config, cm *comm.Comm) *Exchanger {
	c := Config{}
	if cfg != nil {
		c = *cfg
	}
	c = c.WithDefaults()
	return &Exchanger{cm: cm, cfg: c, out: make([][]byte, 0, cm.P())}
}

// Allgather contributes data and returns every rank's contribution in
// rank order — identical content for every strategy; only the schedule
// (and therefore the accounted wire volume and the trace spans) differ.
// The returned slices alias strategy-internal or sender buffers and stay
// valid until the *next* Allgather/Broadcast call on this exchanger.
func (e *Exchanger) Allgather(data []byte) [][]byte {
	switch e.cfg.Strategy {
	case Hier:
		return e.hierAllgather(data)
	case Tree:
		return e.treeAllgather(data)
	default:
		e.out = e.cm.AllgatherInto(e.out[:0], data)
		return e.out
	}
}

// Broadcast returns root's buffer on every rank, scheduled per strategy.
func (e *Exchanger) Broadcast(data []byte, root int) []byte {
	switch e.cfg.Strategy {
	case Hier:
		return e.hierBroadcast(data, root)
	case Tree:
		return e.treeBroadcast(data, root)
	default:
		return e.cm.Broadcast(data, root)
	}
}

// appendFrame appends a [u32 length | payload] frame.
func appendFrame(dst, payload []byte) []byte {
	n := len(payload)
	dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	return append(dst, payload...)
}

// parseFrames appends the p frames in src to out as aliasing sub-slices.
func parseFrames(out [][]byte, src []byte, p int) [][]byte {
	off := 0
	for i := 0; i < p; i++ {
		n := int(src[off]) | int(src[off+1])<<8 | int(src[off+2])<<16 | int(src[off+3])<<24
		off += 4
		out = append(out, src[off:off+n:off+n])
		off += n
	}
	return out
}
