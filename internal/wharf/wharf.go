// Package wharf numerically models Wharf, the link-local frame-level FEC
// baseline of Table 3 (Giesen et al., NetCompute'18). The paper could not
// run Wharf (FPGA hardware) and reproduced its results numerically with the
// FEC parameters giving Wharf's best-reported goodput per loss rate; this
// package does the same.
//
// Wharf encodes blocks of K data frames with R parity frames: the link
// carries K+R frames per block (a fixed R/(K+R) goodput tax whether or not
// losses occur — the drawback the paper calls out in §2), and a block with
// more than R lost frames is unrecoverable, leaving residual loss for the
// transport to repair.
package wharf

import "math"

// Params is one Wharf FEC configuration.
type Params struct {
	K, R int
}

// Overhead is the fixed goodput fraction consumed by parity: R/(K+R).
func (p Params) Overhead() float64 {
	return float64(p.R) / float64(p.K+p.R)
}

// ResidualFrameLoss is the post-FEC frame loss probability at raw
// per-frame loss rate q: the probability a frame belongs to a block with
// more than R losses (approximated by the block-failure probability).
func (p Params) ResidualFrameLoss(q float64) float64 {
	if q <= 0 {
		return 0
	}
	n := p.K + p.R
	// P(more than R of n frames lost), binomial tail in log space. The
	// per-call logarithms are hoisted; each term keeps the same operations
	// in the same order, so the sum is bit-identical to evaluating them
	// per term.
	lq, l1q := math.Log(q), math.Log1p(-q)
	lgN, _ := math.Lgamma(float64(n + 1))
	var tail float64
	for i := p.R + 1; i <= n; i++ {
		lp := logChooseFrom(lgN, n, i) + float64(i)*lq + float64(n-i)*l1q
		tail += math.Exp(lp)
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

// BestParams returns the FEC configuration that gave Wharf's best-reported
// goodput at each loss rate (c.f. Figure 8 of the Wharf paper, as used in
// the paper's Table 3): ~3.85% redundancy up to 1e-3 and ~16.7% at 1e-2.
func BestParams(lossRate float64) Params {
	switch {
	case lossRate <= 1e-5:
		return Params{K: 25, R: 1}
	case lossRate <= 1e-4:
		return Params{K: 50, R: 2}
	case lossRate <= 1e-3:
		return Params{K: 125, R: 5}
	default:
		return Params{K: 30, R: 6}
	}
}

// Goodput predicts Wharf's TCP goodput at raw loss rate q given a baseline
// function mapping a residual loss rate to plain-TCP goodput on the same
// link (obtained by measuring the transport without FEC): the baseline at
// the residual loss, scaled by the parity tax.
func Goodput(baseline func(loss float64) float64, q float64) float64 {
	p := BestParams(q)
	return baseline(p.ResidualFrameLoss(q)) * (1 - p.Overhead())
}

// logChooseFrom is log C(n, k) given lgN = log n!.
func logChooseFrom(lgN float64, n, k int) float64 {
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lgN - lk - lnk
}
