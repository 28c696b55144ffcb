package cluster

// The asynchrony layer: the bounded-staleness and gossip waiting policies
// of the one exchange round (member.go), on the same member machinery
// (receiver, heartbeats, nack repair, resend cache) as the strict BSP
// Exchange.
//
//   - ExchangeBounded trades waiting for measured staleness: a peer that
//     misses the grace budget contributes its freshest cached payload,
//     tagged with how many seqs old it is, and the caller damps it by a
//     staleness discount before folding it into the average. Combined
//     with Runtime.WaitWithinWindow — which keeps any rank from running
//     more than K seqs ahead of the slowest live one — this is SSP-style
//     bounded staleness: a permanent straggler costs one grace budget
//     per iteration instead of stalling the fleet.
//
//   - GossipExchange is decentralized (D-PSGD-style) averaging with the
//     two nearest live ring neighbors under Metropolis mixing weights
//     1/(deg+1). There is no root and no view mutation: a partitioned or
//     crashed neighbor's weight is absorbed into self, each side of a
//     partition keeps making (slower) progress, and healed links resume
//     mixing automatically. The realized mixing matrix row always sums
//     to one, and because absences are symmetric in expectation the
//     matrix stays doubly stochastic — the condition for D-PSGD's
//     average-consensus convergence.

import "fftgrad/internal/trace"

// ExchangeBounded is the bounded-staleness allgather: it waits only one
// short grace budget for live peers, then serves any still-missing peer
// from that peer's freshest cached payload when the cache is at most
// `window` seqs old (reported per-rank in ExchangeResult.StaleBy so the
// caller can damp it). A peer lagging beyond the window is excluded from
// the round outright — never waited on — and a heartbeat-silent peer
// still goes through regular suspicion, so liveness classification is
// identical to Exchange; only the waiting policy differs. The nack retry
// ladder is reserved for peers with no cache at all (warm-up).
func (m *Member) ExchangeBounded(seq uint64, payload []byte, window uint64) (*ExchangeResult, error) {
	return m.allgather(seq, payload, bounded, window)
}

// GossipResult is one completed ring-neighbor gossip round. The member
// owns it and its slices: they are valid until the member's next exchange
// call.
type GossipResult struct {
	// Peers lists the neighbor ranks that contributed, parallel to Msgs.
	Peers []int
	Msgs  [][]byte
	// Stale[i] marks Msgs[i] as served from the neighbor's cached payload;
	// StaleBy[i] says how many seqs old that cache was (0 when fresh).
	Stale   []bool
	StaleBy []uint64
	// SelfWeight and PeerWeight are the realized Metropolis mixing
	// weights: mixed = SelfWeight·own + PeerWeight·Σ Msgs. An absent
	// neighbor's weight is absorbed into SelfWeight, so the row always
	// sums to one.
	SelfWeight float64
	PeerWeight float64
	View       View
}

// gossipRetries caps the nack ladder per gossip round. Gossip self-heals
// by absorbing an absent neighbor's weight into self, so burning the full
// retry budget on a partitioned link would only slow every round down;
// two repair attempts recover ordinary chaos drops.
const gossipRetries = 2

// GossipExchange is one decentralized averaging round with the nearest
// live ring neighbors. No rank is special, and the membership view is
// never mutated: an unreachable neighbor (partition, crash window,
// straggler) is served from its recent cache when at most `window` seqs
// old, and simply carries no weight otherwise. The call cannot return
// ErrStalled — a partitioned fleet keeps making progress on both sides.
func (m *Member) GossipExchange(seq uint64, payload []byte, window uint64) (*GossipResult, error) {
	r, err := m.exchange(seq, payload, gossip, window)
	if err != nil {
		return nil, err
	}
	res := &m.gsp
	*res = GossipResult{View: r.view,
		Peers: res.Peers[:0], Msgs: res.Msgs[:0], Stale: res.Stale[:0], StaleBy: res.StaleBy[:0]}
	for _, j := range r.peers {
		if r.msgs[j] != nil {
			res.Peers = append(res.Peers, j)
			res.Msgs = append(res.Msgs, r.msgs[j])
			res.Stale = append(res.Stale, r.stale[j])
			res.StaleBy = append(res.StaleBy, r.staleBy[j])
		}
	}
	// Metropolis weights for a ring: every edge carries 1/(deg+1); the
	// self loop keeps the remainder, including any absentee's share.
	res.PeerWeight = 1.0 / float64(len(r.peers)+1)
	res.SelfWeight = 1.0 - float64(len(res.Peers))*res.PeerWeight
	if len(res.Peers) < len(r.peers) {
		m.rt.noteDegraded(m.rank)
	}
	m.rt.noteGossipRound()
	m.tc.Instant(trace.OpGossip, int64(len(res.Peers)))
	return res, nil
}

// ringNeighbors appends rank's nearest live neighbor in each ring
// direction to out (deduplicated — at p=2 both directions reach the same
// peer).
func ringNeighbors(out []int, rank int, alive []bool) []int {
	p := len(alive)
	n := len(out)
	for s := 1; s < p; s++ {
		if j := (rank + s) % p; alive[j] {
			out = append(out, j)
			break
		}
	}
	for s := 1; s < p; s++ {
		j := ((rank-s)%p + p) % p
		if alive[j] {
			if len(out) == n || out[n] != j {
				out = append(out, j)
			}
			break
		}
	}
	return out
}
