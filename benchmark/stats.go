package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile of already sorted values.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// iqMean is the mean of the values between the quartiles. Loopback TCP
// puts a few percent of passes 10-20x above the median, so a plain mean
// of pass time is set by how many stalls a window happened to catch.
func iqMean(v []float64) float64 {
	s := sorted(v)
	s = s[len(s)/4 : len(s)-len(s)/4]
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns,
// the rule the builder's contract measures run-to-run spread with.
func quartiles(v []float64) (q [3]float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		for i := range q {
			q[i] = quantile(s, 0.5)
		}
		return q
	}
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func nsToMs(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x) / 1e6
	}
	return out
}
