// Package netsim models the communication cost of the collectives used in
// distributed DNN training on parameterized network fabrics.
//
// This is the stand-in for the paper's physical testbed (4×P100 nodes on
// 56 Gbps FDR InfiniBand): wall-clock communication results in the
// experiments are produced by pricing the *actual message sizes* our
// compressors emit through these α/β (latency/bandwidth) cost models.
// The models are the standard ones from the collective-communication
// literature (Thakur et al.), and reproduce the paper's Fig. 11
// observation that allgather cost grows linearly with the number of GPUs.
package netsim

import "math/bits"

// Profile describes one interconnect: per-link bandwidth in bytes/second
// and per-message latency in seconds.
type Profile struct {
	Name      string
	Bandwidth float64 // bytes per second per link direction
	Latency   float64 // seconds per message hop
}

// Standard fabrics used across the experiments. Bandwidths are the usable
// data rates of the nominal link speeds.
var (
	// Ethernet1G is 1 Gbps commodity Ethernet.
	Ethernet1G = Profile{Name: "1GbE", Bandwidth: 1e9 / 8 * 0.9, Latency: 50e-6}
	// Ethernet10G is 10 Gbps Ethernet.
	Ethernet10G = Profile{Name: "10GbE", Bandwidth: 10e9 / 8 * 0.9, Latency: 20e-6}
	// InfiniBandFDR is 56 Gbps FDR InfiniBand (the paper's cluster).
	InfiniBandFDR = Profile{Name: "FDR-IB", Bandwidth: 56e9 / 8 * 0.9, Latency: 2e-6}
	// PCIe3 approximates intra-node GPU-to-GPU transfers over PCIe 3.0 x16,
	// used for runs with ≤4 GPUs on one node (Fig. 16's flat region).
	PCIe3 = Profile{Name: "PCIe3", Bandwidth: 12e9, Latency: 1e-6}
)

// PointToPoint returns the time to move m bytes across one link.
func (p Profile) PointToPoint(m int) float64 {
	return p.Latency + float64(m)/p.Bandwidth
}

// RingAllreduce returns the time for a ring allreduce of an m-byte buffer
// across n nodes: 2(n−1) steps each moving m/n bytes.
func (p Profile) RingAllreduce(n, m int) float64 {
	if n <= 1 {
		return 0
	}
	steps := float64(2 * (n - 1))
	return steps*p.Latency + steps*float64(m)/float64(n)/p.Bandwidth
}

// Allgather returns the time for a ring allgather where every node
// contributes m bytes and ends with all n·m bytes: n−1 steps each moving
// m bytes. Cost grows linearly in n — the Fig. 11 curve, and the reason
// compressed allgather still beats uncompressed allreduce only when the
// compression ratio outruns the collective's volume disadvantage.
func (p Profile) Allgather(n, m int) float64 {
	if n <= 1 {
		return 0
	}
	steps := float64(n - 1)
	return steps*p.Latency + steps*float64(m)/p.Bandwidth
}

// Broadcast returns the time for a binomial-tree broadcast of m bytes to
// n nodes: ⌈log2 n⌉ rounds.
func (p Profile) Broadcast(n, m int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(bits.Len(uint(n-1))) * (p.Latency + float64(m)/p.Bandwidth)
}

// TreeReduce returns the time for a binomial-tree reduction of an m-byte
// buffer to a root across n nodes: ⌈log2 n⌉ rounds, each moving the full
// m bytes over the busiest link. Latency-bound for small m (log n hops
// instead of the ring's 2(n−1)), bandwidth-bound for large m (the root's
// links carry m per round, with no ring-style m/n pipelining).
func (p Profile) TreeReduce(n, m int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(bits.Len(uint(n-1))) * (p.Latency + float64(m)/p.Bandwidth)
}

// Hierarchical models the paper's cluster shape: nodesPerHost ranks talk
// over PCIe inside a host and the inter-host fabric between hosts. For a
// collective across n ranks it prices the slower (inter-host) stage when
// n exceeds nodesPerHost and the PCIe stage otherwise — reproducing the
// flat ≤4-GPU region of Fig. 16.
type Hierarchical struct {
	Intra        Profile // e.g. PCIe3
	Inter        Profile // e.g. InfiniBandFDR
	RanksPerHost int
}

// Allgather prices an allgather of m bytes per rank across n ranks.
func (h Hierarchical) Allgather(n, m int) float64 {
	if n <= h.RanksPerHost {
		return h.Intra.Allgather(n, m)
	}
	hosts := (n + h.RanksPerHost - 1) / h.RanksPerHost
	// Stage 1: gather within each host (RanksPerHost·m bytes per host).
	intra := h.Intra.Allgather(h.RanksPerHost, m)
	// Stage 2: hosts exchange their aggregated blocks.
	inter := h.Inter.Allgather(hosts, m*h.RanksPerHost)
	return intra + inter
}

// Broadcast prices a broadcast of m bytes to n ranks.
func (h Hierarchical) Broadcast(n, m int) float64 {
	if n <= h.RanksPerHost {
		return h.Intra.Broadcast(n, m)
	}
	hosts := (n + h.RanksPerHost - 1) / h.RanksPerHost
	return h.Inter.Broadcast(hosts, m) + h.Intra.Broadcast(h.RanksPerHost, m)
}

// CometCluster reproduces the paper's testbed shape: 4 GPUs per node over
// PCIe, nodes connected by 56 Gbps FDR InfiniBand.
func CometCluster() Hierarchical {
	return Hierarchical{Intra: PCIe3, Inter: InfiniBandFDR, RanksPerHost: 4}
}
