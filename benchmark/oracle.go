package main

import (
	"math"

	"kylix"
)

// Tolerances of the reference check: max error over the result's
// largest magnitude. Raw sums differ from the dense reference only by
// float32 summation order; the quantized bounds are the ones the
// quantization soak tests hold the codecs to.
func tolerance(q kylix.Quantization) float64 {
	switch q {
	case kylix.QuantFP16:
		return 2e-2
	case kylix.QuantINT8:
		return 1.5e-1
	default:
		return 1e-5
	}
}

// denseSum is the reference allreduce: every rank's rows added, in rank
// order, into one dense n x width accumulator.
func denseSum(n, width int, sets [][]int32, vals [][]float32) []float64 {
	dense := make([]float64, n*width)
	for r, set := range sets {
		for j, idx := range set {
			for c := 0; c < width; c++ {
				dense[int(idx)*width+c] += float64(vals[r][j*width+c])
			}
		}
	}
	return dense
}

// matches reports whether every rank's result is dense restricted to
// the rank's set, within tol.
func matches(res [][]float32, sets [][]int32, width int, dense []float64, tol float64) bool {
	for r, set := range sets {
		got := res[r]
		if len(got) != len(set)*width {
			return false
		}
		maxAbs, maxErr := 0.0, 0.0
		for j, idx := range set {
			for c := 0; c < width; c++ {
				want := dense[int(idx)*width+c]
				maxAbs = max(maxAbs, math.Abs(want))
				maxErr = max(maxErr, math.Abs(float64(got[j*width+c])-want))
			}
		}
		// NaN compares false, so a NaN result fails.
		if !(maxErr <= tol*maxAbs) {
			return false
		}
	}
	return true
}

// capture keeps each rank's result of pass 0 (the digest pass: its
// inputs do not depend on how many passes a window fits) and of the
// first and last measured pass (the checked ones).
type capture struct {
	zero, first, last [][]float32
	firstIdx, lastIdx []int
}

func newCapture(ranks int) *capture {
	c := &capture{
		zero: make([][]float32, ranks), first: make([][]float32, ranks), last: make([][]float32, ranks),
		firstIdx: make([]int, ranks), lastIdx: make([]int, ranks),
	}
	c.reset()
	return c
}

func (c *capture) reset() {
	for r := range c.first {
		c.zero[r], c.first[r], c.last[r] = nil, nil, nil
		c.firstIdx[r], c.lastIdx[r] = -1, -1
	}
}

func (c *capture) keep(rank, pass int, measured bool, res []float32) {
	if pass == 0 {
		c.zero[rank] = res
	}
	if !measured {
		return
	}
	if c.firstIdx[rank] < 0 {
		c.first[rank], c.firstIdx[rank] = res, pass
	}
	c.last[rank], c.lastIdx[rank] = res, pass
}

// checked lists the captured passes as (pass index, per-rank results).
func (c *capture) checked() []checkedPass {
	out := []checkedPass{{c.firstIdx[0], c.first}}
	if c.lastIdx[0] != c.firstIdx[0] {
		out = append(out, checkedPass{c.lastIdx[0], c.last})
	}
	return out
}

type checkedPass struct {
	pass int
	res  [][]float32
}

// failed counts the captured passes check rejects; at is the pass's
// position in checked(). A capture that saw no measured pass counts as
// one failure.
func (c *capture) failed(check func(at int, cp checkedPass) bool) int {
	n := 0
	for at, cp := range c.checked() {
		if cp.pass < 0 || !check(at, cp) {
			n++
		}
	}
	return n
}
