package powerlaw

import (
	"fmt"
	"sort"
)

// DesignInput parameterizes the Section IV network-design workflow.
type DesignInput struct {
	// N is the total feature count (vector length).
	N int64
	// Alpha is the power-law exponent of the data.
	Alpha float64
	// Density0 is the measured nonzero density of the initial per-node
	// partition (nonzeros / N).
	Density0 float64
	// Machines is the cluster size m; the designed degrees multiply to it.
	Machines int
	// ElemBytes is the wire size of one vector element (4 for float32
	// values or int32 indices).
	ElemBytes int
	// MinPacket is the smallest efficient message size in bytes (the
	// ~5 MB floor of Figure 2 on the paper's 10 Gb/s EC2 cluster).
	MinPacket float64
	// MaxDegree optionally caps any single layer's degree (0 = no cap).
	MaxDegree int
}

// Design runs the Section IV workflow: walk down the network, and at each
// layer pick the largest feasible degree such that the per-message packet
// stays at or above MinPacket, then recompute the next layer's density
// via Proposition 4.1. Degrees are constrained to divisors of the
// remaining machine count so that the product is exactly m. When even
// degree 2 would drop below the packet floor, the smallest prime factor
// of the remainder is used (the network must still reach m; latency then
// argues for as few further layers as possible, which the shrinking data
// guarantees).
//
// The returned degrees are non-increasing for power-law data, since data
// per node shrinks monotonically down the layers.
func Design(in DesignInput) ([]int, error) {
	if in.Machines < 1 {
		return nil, fmt.Errorf("powerlaw: need at least 1 machine, got %d", in.Machines)
	}
	if in.Machines == 1 {
		return []int{1}, nil
	}
	if in.ElemBytes <= 0 || in.MinPacket <= 0 {
		return nil, fmt.Errorf("powerlaw: ElemBytes and MinPacket must be positive")
	}
	lambda0, err := SolveLambda(in.N, in.Alpha, in.Density0)
	if err != nil {
		return nil, err
	}

	var degrees []int
	remaining := in.Machines
	k := int64(1) // partitions aggregated so far
	for remaining > 1 {
		density := Density(in.N, in.Alpha, float64(k)*lambda0)
		elems := density * float64(in.N) / float64(k)
		bytes := elems * float64(in.ElemBytes)
		dmax := int(bytes / in.MinPacket)
		if in.MaxDegree > 0 && dmax > in.MaxDegree {
			dmax = in.MaxDegree
		}
		d := largestDivisorAtMost(remaining, dmax)
		if d < 2 {
			// Packets already below the floor: minimize further layers'
			// damage by taking the smallest prime factor.
			d = SmallestPrimeFactor(remaining)
		}
		degrees = append(degrees, d)
		remaining /= d
		k *= int64(d)
		if len(degrees) > 64 {
			return nil, fmt.Errorf("powerlaw: design did not converge for m=%d", in.Machines)
		}
	}
	return degrees, nil
}

// DesignWithLambda is Design for callers that already know λ0 (e.g. the
// generator) instead of a measured density.
func DesignWithLambda(in DesignInput, lambda0 float64) ([]int, error) {
	d0 := Density(in.N, in.Alpha, lambda0)
	in.Density0 = d0
	return Design(in)
}

// largestDivisorAtMost returns the largest divisor of n that is <= cap
// and >= 2, or 0 if none exists.
func largestDivisorAtMost(n, cap int) int {
	if cap >= n {
		return n
	}
	best := 0
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			if d <= cap && d > best {
				best = d
			}
			if q := n / d; q <= cap && q > best {
				best = q
			}
		}
	}
	return best
}

// SmallestPrimeFactor returns the smallest prime factor of n >= 2.
func SmallestPrimeFactor(n int) int {
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return d
		}
	}
	return n
}

// Factorizations enumerates all ordered factorizations of m into factors
// >= 2 (used by tests and by exhaustive design search).
func Factorizations(m int) [][]int {
	if m == 1 {
		return [][]int{{}}
	}
	var out [][]int
	divs := divisors(m)
	for _, d := range divs {
		if d < 2 {
			continue
		}
		for _, rest := range Factorizations(m / d) {
			f := append([]int{d}, rest...)
			out = append(out, f)
		}
	}
	return out
}

func divisors(m int) []int {
	var out []int
	for d := 1; d*d <= m; d++ {
		if m%d == 0 {
			out = append(out, d)
			if q := m / d; q != d {
				out = append(out, q)
			}
		}
	}
	sort.Ints(out)
	return out
}
