package powerlaw

import (
	"fmt"
	"math"
	"math/rand"
)

// Fit estimates power-law parameters (alpha, lambda0) for a dataset from
// a sample of raw feature occurrences (with multiplicity — e.g. all edge
// endpoints of one machine's partition). This implements the last
// paragraph of the paper's §IV: when the data's exponent is unknown,
// "draw p samples from the sparse set for various p and measure the
// density", building an empirical density-vs-scale curve; here that
// curve is matched against the f(λ) family so Proposition 4.1 and the
// design workflow apply unchanged.
//
// n is the feature-space size. The fit grids alpha, solves lambda for
// each alpha from the full sample's density, and scores candidates on
// the subsample densities at fractions of the data.
func Fit(rng *rand.Rand, occurrences []int32, n int64) (alpha, lambda0 float64, err error) {
	if len(occurrences) < 16 {
		return 0, 0, fmt.Errorf("powerlaw: need at least 16 occurrences to fit, got %d", len(occurrences))
	}
	fullDensity := distinctDensity(occurrences, n)
	if fullDensity <= 0 || fullDensity >= 1 {
		return 0, 0, fmt.Errorf("powerlaw: degenerate sample density %g", fullDensity)
	}

	// Empirical anchor points: density after subsampling to fractions of
	// the occurrences (averaged over a few shuffles).
	fractions := []float64{0.5, 0.25, 0.125}
	empirical := make([]float64, len(fractions))
	const shuffles = 4
	work := append([]int32(nil), occurrences...)
	for s := 0; s < shuffles; s++ {
		rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		for fi, f := range fractions {
			p := int(float64(len(work)) * f)
			if p < 1 {
				p = 1
			}
			empirical[fi] += distinctDensity(work[:p], n)
		}
	}
	for fi := range empirical {
		empirical[fi] /= shuffles
	}

	// Grid over alpha: for each candidate, lambda comes from the full
	// density; the subsample of fraction f of a Poisson(λ r^-α) process
	// is Poisson(fλ r^-α), so predicted subsample density is f(f·λ).
	// Two-stage grid: coarse sweep, then refine around the winner. Each
	// candidate costs a SolveLambda bisection, so the grid is kept small.
	best := math.Inf(1)
	coarse := func(lo, hi, step float64) {
		for a := lo; a <= hi+1e-9; a += step {
			l, err := SolveLambda(n, a, fullDensity)
			if err != nil {
				continue
			}
			score := 0.0
			for fi, f := range fractions {
				pred := Density(n, a, f*l)
				diff := pred - empirical[fi]
				score += diff * diff
			}
			if score < best {
				best = score
				alpha, lambda0 = a, l
			}
		}
	}
	coarse(0.3, 2.5, 0.2)
	if !math.IsInf(best, 1) {
		center := alpha
		coarse(math.Max(0.3, center-0.2), center+0.2, 0.05)
	}
	if math.IsInf(best, 1) {
		return 0, 0, fmt.Errorf("powerlaw: fit failed for density %g", fullDensity)
	}
	return alpha, lambda0, nil
}

// distinctDensity is the fraction of the n features present at least
// once in the occurrence list.
func distinctDensity(occurrences []int32, n int64) float64 {
	seen := make(map[int32]struct{}, len(occurrences))
	for _, o := range occurrences {
		seen[o] = struct{}{}
	}
	return float64(len(seen)) / float64(n)
}

// DesignFromSample runs the full measure-then-design pipeline of §IV:
// fit (alpha, lambda0) from one partition's raw occurrences, then choose
// optimal degrees. It returns the degrees together with the fitted
// parameters for reporting.
func DesignFromSample(rng *rand.Rand, occurrences []int32, n int64, machines, elemBytes int, minPacket float64) (degrees []int, alpha, lambda0 float64, err error) {
	alpha, lambda0, err = Fit(rng, occurrences, n)
	if err != nil {
		return nil, 0, 0, err
	}
	degrees, err = DesignWithLambda(DesignInput{
		N: n, Alpha: alpha, Machines: machines,
		ElemBytes: elemBytes, MinPacket: minPacket,
	}, lambda0)
	if err != nil {
		return nil, 0, 0, err
	}
	return degrees, alpha, lambda0, nil
}

// Occurrences draws a raw occurrence sample from a Generator: the
// multiset of feature hits of one node partition (useful for tests and
// for demonstrating the fit pipeline on synthetic data).
func (g *Generator) Occurrences(rng *rand.Rand) []int32 {
	var out []int32
	// Head: exact Poisson draws while the rate is non-negligible.
	for r := int64(1); r <= g.N; r++ {
		rate := g.Lambda0 * math.Pow(float64(r), -g.Alpha)
		if rate < 1e-4 && r > 4096 {
			// Tail: presence sampling is sufficient (multiplicity ~1).
			return g.appendTail(out, rng, r)
		}
		for c := poisson(rng, rate); c > 0; c-- {
			out = append(out, int32(r-1))
		}
	}
	return out
}

// poisson draws Poisson(rate) by inversion (rates here are small).
func poisson(rng *rand.Rand, rate float64) int {
	if rate <= 0 {
		return 0
	}
	l := math.Exp(-rate)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1<<20 {
			return k // unreachable for sane rates; guards pathological input
		}
	}
}
