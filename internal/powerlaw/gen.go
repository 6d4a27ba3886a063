package powerlaw

import (
	"math"
	"math/rand"

	"kylix/internal/sparse"
)

// Generator produces synthetic per-node sparse workloads whose
// rank-frequency statistics follow the paper's model: the count of
// feature r in a node's partition is Poisson(λ0 r^-α).
type Generator struct {
	// N is the feature-space size.
	N int64
	// Alpha is the power-law exponent.
	Alpha float64
	// Lambda0 is the per-node Poisson scaling factor. Use SolveLambda to
	// derive it from a target partition density.
	Lambda0 float64
}

// NewGeneratorForDensity builds a Generator whose per-node partitions
// have the given expected density (fraction of the N features present).
func NewGeneratorForDensity(n int64, alpha, density float64) (*Generator, error) {
	lambda0, err := SolveLambda(n, alpha, density)
	if err != nil {
		return nil, err
	}
	return &Generator{N: n, Alpha: alpha, Lambda0: lambda0}, nil
}

// NodeSet draws one node's feature set: feature r (1-based rank) is
// present with probability 1-exp(-λ0 r^-α). Rank r is identified with
// feature index r-1, so low indices are the high-frequency head. The
// returned set is in key order.
//
// The head (presence probability above pExact) is sampled
// feature-by-feature; the long tail uses geometric skip sampling at a
// locally-frozen rate, which is accurate because the power-law rate
// changes slowly at large r. Complexity is O(head + nonzeros) rather
// than O(N).
func (g *Generator) NodeSet(rng *rand.Rand) sparse.Set {
	const pExact = 0.05
	present := make([]int32, 0, int(float64(g.N)*Density(g.N, g.Alpha, g.Lambda0))+16)

	// Exact head: flip a coin per rank while p is large.
	r := int64(1)
	for ; r <= g.N; r++ {
		p := -math.Expm1(-g.Lambda0 * math.Pow(float64(r), -g.Alpha))
		if p < pExact {
			break
		}
		if rng.Float64() < p {
			present = append(present, int32(r-1))
		}
	}
	present = g.appendTail(present, rng, r)
	set, _, err := sparse.NewSet(present)
	if err != nil {
		panic("powerlaw: generator produced invalid index: " + err.Error())
	}
	return set
}

// appendTail appends the tail presences from rank r0 upward (indices
// r-1) to dst: between hits, skip Geometric(p) ranks with p frozen per
// block. Blocks grow geometrically by 12.5%, so the true power-law
// rate varies by at most ~alpha/8 within a block and the rate frozen
// at the geometric midpoint tracks the block mean closely.
func (g *Generator) appendTail(dst []int32, rng *rand.Rand, r0 int64) []int32 {
	r := r0
	for r <= g.N {
		blockLen := r / 8
		if blockLen < 64 {
			blockLen = 64
		}
		blockEnd := r + blockLen
		if blockEnd > g.N {
			blockEnd = g.N
		}
		geoMid := math.Sqrt(float64(r) * float64(blockEnd))
		p := -math.Expm1(-g.Lambda0 * math.Pow(geoMid, -g.Alpha))
		if p <= 1e-15 {
			r = blockEnd + 1
			continue
		}
		for r <= blockEnd {
			u := rng.Float64()
			if u == 0 {
				u = 0x1p-60 // avoid log(0); astronomically rare
			}
			jump := math.Floor(math.Log(u) / math.Log(1-p))
			if jump > float64(blockEnd-r+1) {
				jump = float64(blockEnd-r) + 1 // clamp before int conversion
			}
			r += int64(jump)
			if r > blockEnd {
				// The skip crossed the block boundary; resume from the
				// boundary with a refreshed rate. Skips are memoryless,
				// so restarting at blockEnd+1 is distribution-correct.
				r = blockEnd + 1
				break
			}
			dst = append(dst, int32(r-1))
			r++
		}
	}
	return dst
}

// NodeVec draws a node's feature set together with random values in
// [0,1) for each present feature.
func (g *Generator) NodeVec(rng *rand.Rand, width int) sparse.Vec {
	set := g.NodeSet(rng)
	v := sparse.NewVec(set, width)
	for i := range v.Data {
		v.Data[i] = rng.Float32()
	}
	return v
}

// ZipfRank samples a rank in [1, n] from the continuous power-law
// approximation of a Zipf(alpha) distribution by inverse-CDF. It is O(1)
// per sample and supports any alpha > 0 including alpha <= 1 (which
// math/rand's Zipf does not).
func ZipfRank(rng *rand.Rand, n int64, alpha float64) int64 {
	u := rng.Float64()
	var x float64
	if math.Abs(alpha-1) < 1e-9 {
		// CDF ∝ ln x on [1, n+1)
		x = math.Pow(float64(n)+1, u)
	} else {
		b := math.Pow(float64(n)+1, 1-alpha)
		x = math.Pow(u*(b-1)+1, 1/(1-alpha))
	}
	r := int64(x)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}
