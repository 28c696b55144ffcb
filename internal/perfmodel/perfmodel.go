// Package perfmodel implements the analytic sensitivity model of Sec. 3.3
// (Eq. 1-4): given the throughputs of the compression primitives and of
// the network, when does compression pay off, and what is the minimal
// compression ratio k that shows any benefit?
//
// The model prices a message of M bytes through the pipeline
//
//	cost_comp  = M·(2/Tm + 1/Tf + 1/Tp + 1/Ts)                     (Eq. 1)
//	cost_comm  = (M/Tcomm)·(1/k)                                   (Eq. 2)
//	saved_comm = (M/Tcomm)·(1 − 1/k)                               (Eq. 3)
//
// and requires 2·cost_comp < saved_comm (compression *and* decompression
// must amortize), giving
//
//	k > 1 / (1 − 2·Tcomm·(2/Tm + 1/Tf + 1/Tp + 1/Ts))              (Eq. 4)
//
// with no beneficial k at all once the denominator goes non-positive —
// the "no compression ratio will help" regime of Fig. 10.
package perfmodel

import (
	"errors"
	"fmt"
)

// Throughputs holds the pipeline primitive rates, all in bytes/second
// (Table 1 of the paper).
type Throughputs struct {
	Tm float64 // precision conversion (float↔half, range quantizer); O(N), counted twice
	Tf float64 // FFT
	Tp float64 // sparse packing
	Ts float64 // top-k selection
}

// Validate reports whether every rate is positive.
func (t Throughputs) Validate() error {
	if t.Tm <= 0 || t.Tf <= 0 || t.Tp <= 0 || t.Ts <= 0 {
		return fmt.Errorf("perfmodel: non-positive throughput in %+v", t)
	}
	return nil
}

// perByte returns the compression pipeline's cost per input byte,
// 2/Tm + 1/Tf + 1/Tp + 1/Ts.
func (t Throughputs) perByte() float64 {
	return 2/t.Tm + 1/t.Tf + 1/t.Tp + 1/t.Ts
}

// CompressionCost returns cost_comp (Eq. 1) for a message of m bytes.
func CompressionCost(m int, t Throughputs) float64 {
	return float64(m) * t.perByte()
}

// CommunicationCost returns cost_comm (Eq. 2) for m bytes at ratio k over
// a link of tcomm bytes/second.
func CommunicationCost(m int, tcomm, k float64) float64 {
	return float64(m) / tcomm / k
}

// SavedCost returns saved_cost_comm (Eq. 3).
func SavedCost(m int, tcomm, k float64) float64 {
	return float64(m) / tcomm * (1 - 1/k)
}

// ErrNoBeneficialRatio is returned when the compression pipeline is too
// slow relative to the network for any ratio to help.
var ErrNoBeneficialRatio = errors.New("perfmodel: no compression ratio is beneficial on this configuration")

// MinBeneficialRatio returns the minimal compression ratio k that yields
// a net win (Eq. 4), or ErrNoBeneficialRatio when the denominator is
// non-positive (compression cost alone exceeds the total communication
// saving ceiling).
func MinBeneficialRatio(tcomm float64, t Throughputs) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if tcomm <= 0 {
		return 0, fmt.Errorf("perfmodel: non-positive network throughput %g", tcomm)
	}
	den := 1 - 2*tcomm*t.perByte()
	if den <= 0 {
		return 0, ErrNoBeneficialRatio
	}
	return 1 / den, nil
}

// EndToEnd returns the total per-message time with compression enabled
// (both endpoints pay the pipeline) and without.
func EndToEnd(m int, tcomm, k float64, t Throughputs) (with, without float64) {
	with = 2*CompressionCost(m, t) + CommunicationCost(m, tcomm, k)
	without = float64(m) / tcomm
	return with, without
}

// MaxTolerableTcomm returns the fastest network on which the pipeline can
// still pay off at *any* ratio: the Tcomm where Eq. 4's denominator hits
// zero. Faster networks than this make compression pointless whatever k
// is (Fig. 10's "Ts=12GB/s ⇒ nothing helps beyond 22 Gbps" observation).
func MaxTolerableTcomm(t Throughputs) float64 {
	return 1 / (2 * t.perByte())
}

// GPUReference returns primitive throughputs representative of the
// paper's V100-class pipeline: packing at the 34 GB/s measured in
// Sec. 3.2, elementwise conversion near memory bandwidth, cuFFT and
// bucket-select at bandwidth-bound rates. Calibrated so Eq. 4 lands on
// the paper's headline numbers: minimal beneficial k ≈ 30 on 56 Gbps FDR
// InfiniBand and ≈ 2 or less on 10 Gbps Ethernet (Fig. 10).
func GPUReference() Throughputs {
	return Throughputs{
		Tm: 300e9, // bytes/s — bandwidth-bound elementwise conversion
		Tf: 50e9,
		Tp: 34e9, // the paper's measured packing throughput
		Ts: 75e9,
	}
}
