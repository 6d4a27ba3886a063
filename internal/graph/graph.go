// Package graph provides the distributed sparse-matrix substrate the
// evaluation workloads run on: power-law edge generation (the synthetic
// stand-ins for the Twitter-followers and Yahoo web graphs), random edge
// partitioning (§II-B: the partitioning scheme the paper uses, since
// greedy partitioning's precomputation dwarfs the runtime), and per-
// machine SpMV shards whose in-sets are their non-zero columns and
// out-sets their non-zero rows — exactly the sparse-allreduce interface
// of §I-A2.
package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"kylix/internal/core"
	"kylix/internal/powerlaw"
	"kylix/internal/sparse"
)

// Edge is one directed edge src -> dst.
type Edge struct {
	Src, Dst int32
}

// GenPowerLaw draws nnz directed edges over n vertices with Zipf-like
// endpoint distributions: source ranks follow alphaOut, destination
// ranks alphaIn. Vertex ids are a fixed pseudorandom permutation of the
// rank order so that "hot" vertices are spread across the id space as
// in real graph crawls. Duplicate edges are kept (they model multi-
// interactions and only change weights).
func GenPowerLaw(rng *rand.Rand, n int64, nnz int, alphaOut, alphaIn float64) []Edge {
	edges := make([]Edge, nnz)
	for i := range edges {
		src := vertexOfRank(powerlaw.ZipfRank(rng, n, alphaOut), n)
		dst := vertexOfRank(powerlaw.ZipfRank(rng, n, alphaIn), n)
		edges[i] = Edge{Src: src, Dst: dst}
	}
	return edges
}

// vertexOfRank maps a 1-based popularity rank to a vertex id through a
// cheap measure-preserving mix (an affine permutation mod n).
func vertexOfRank(rank, n int64) int32 {
	// 0x9E3779B1 is coprime with any n not divisible by it; to be safe
	// for every n use a multiplier forced odd and re-mod. An affine map
	// with odd multiplier is a bijection mod 2^k only; for general n we
	// accept a tiny non-uniformity by hashing then reducing.
	h := uint64(rank-1) * 0x9E3779B97F4A7C15
	return int32((h ^ h>>31) % uint64(n))
}

// PartitionEdges distributes edges uniformly at random over m machines
// (the random edge partitioning of §II-B).
func PartitionEdges(rng *rand.Rand, edges []Edge, m int) [][]Edge {
	parts := make([][]Edge, m)
	for i := range parts {
		parts[i] = make([]Edge, 0, len(edges)/m+1)
	}
	for _, e := range edges {
		p := rng.Intn(m)
		parts[p] = append(parts[p], e)
	}
	return parts
}

// OutDegrees counts each vertex's out-degree across the full edge set
// (needed for PageRank's column normalization).
func OutDegrees(n int64, edges []Edge) []int32 {
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.Src]++
	}
	return deg
}

// Shard is one machine's share of a distributed sparse matrix, stored as
// position-indexed triplets: In lists the distinct source vertices whose
// values the shard needs (its allreduce in-set), Out the distinct
// destination vertices it produces (its out-set), and each local edge is
// (position in In, position in Out, weight).
type Shard struct {
	// In is the sorted key set of distinct sources (non-zero columns).
	In sparse.Set
	// Out is the sorted key set of distinct destinations (non-zero rows).
	Out sparse.Set
	// SrcPos/DstPos/W are the local edges in triplet form.
	SrcPos []int32
	DstPos []int32
	W      []float32
}

// BuildShard converts an edge list (with optional per-edge weights; nil
// means weight 1) into a Shard.
func BuildShard(edges []Edge, weights []float32) (*Shard, error) {
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("graph: %d edges but %d weights", len(edges), len(weights))
	}
	srcIdx := make([]int32, len(edges))
	dstIdx := make([]int32, len(edges))
	for i, e := range edges {
		srcIdx[i], dstIdx[i] = e.Src, e.Dst
	}
	in, srcPerm, err := sparse.NewSet(srcIdx)
	if err != nil {
		return nil, err
	}
	out, dstPerm, err := sparse.NewSet(dstIdx)
	if err != nil {
		return nil, err
	}
	s := &Shard{In: in, Out: out,
		SrcPos: sparse.PermOrIdentity(srcPerm, len(edges)), DstPos: sparse.PermOrIdentity(dstPerm, len(edges))}
	if weights == nil {
		s.W = make([]float32, len(edges))
		for i := range s.W {
			s.W[i] = 1
		}
	} else {
		s.W = append([]float32(nil), weights...)
	}
	return s, nil
}

// NNZ returns the shard's local edge count.
func (s *Shard) NNZ() int { return len(s.W) }

// Propagate is the round loop of the §I-A2 workloads that propagate
// values along edges to a fixed point (components, BFS, diameter
// sketches). It configures m over (tracked, s.Out) and convergence over
// one key. Each round fills the out vector (width values a destination)
// with fill, lets fold fold every local edge into it — src a position in
// tracked, dst one in s.Out — reduces it, hands the tracked vertices'
// result to merge, which returns how many values it changed, and sums
// those counts over convergence. It stops after the first round whose
// total is zero, or after maxRounds, and returns the totals, one a
// round; name prefixes its errors.
func (s *Shard) Propagate(name string, m, convergence *core.Machine, tracked sparse.Set, width int, fill float32, maxRounds int,
	fold func(out []float32, src, dst int), merge func(got []float32) int) ([]int, error) {
	srcSlot, err := sparse.PositionMap(s.In, tracked)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	cfg, err := m.Configure(tracked, s.Out)
	if err != nil {
		return nil, fmt.Errorf("%s: configure: %w", name, err)
	}
	one := sparse.MustNewSet([]int32{0})
	conv, err := convergence.Configure(one, one)
	if err != nil {
		return nil, fmt.Errorf("%s: convergence configure: %w", name, err)
	}
	out := make([]float32, len(s.Out)*width)
	var totals []int
	for round := 1; round <= maxRounds; round++ {
		sparse.Fill(out, fill)
		for e, src := range s.SrcPos {
			fold(out, int(srcSlot[src]), int(s.DstPos[e]))
		}
		got, err := cfg.Reduce(out)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", name, round, err)
		}
		total, err := conv.Reduce([]float32{float32(merge(got))})
		if err != nil {
			return nil, fmt.Errorf("%s: convergence round %d: %w", name, round, err)
		}
		if totals = append(totals, int(total[0])); total[0] == 0 {
			break
		}
	}
	return totals, nil
}

// Relax is Propagate under a MIN reduce: a destination hears the least
// cur[src] + step over its in-edges, and a tracked value in cur falls to
// what it hears.
func (s *Shard) Relax(name string, m, convergence *core.Machine, tracked sparse.Set, cur []float32, step float32, maxRounds int) ([]int, error) {
	return s.Propagate(name, m, convergence, tracked, 1, float32(math.Inf(1)), maxRounds,
		func(out []float32, src, dst int) { out[dst] = min(out[dst], cur[src]+step) },
		func(got []float32) (changed int) {
			for i, v := range got {
				if v < cur[i] {
					cur[i], changed = v, changed+1
				}
			}
			return changed
		})
}

// Multiply computes the local sparse product y = X_i * x: x holds one
// value per In key, y (zeroed by this call) receives one value per Out
// key. This is the compute half of a PageRank iteration; the allreduce
// sums the per-shard y's and routes each machine its In values back.
func (s *Shard) Multiply(x, y []float32) error {
	if len(x) != len(s.In) || len(y) != len(s.Out) {
		return fmt.Errorf("graph: Multiply got |x|=%d |y|=%d, want %d and %d",
			len(x), len(y), len(s.In), len(s.Out))
	}
	for i := range y {
		y[i] = 0
	}
	for e := range s.W {
		y[s.DstPos[e]] += s.W[e] * x[s.SrcPos[e]]
	}
	return nil
}

// PageRankWeights returns per-edge weights 1/outdeg(src) for a shard's
// edge list, given global out-degrees.
func PageRankWeights(edges []Edge, outDeg []int32) []float32 {
	w := make([]float32, len(edges))
	for i, e := range edges {
		if d := outDeg[e.Src]; d > 0 {
			w[i] = 1 / float32(d)
		}
	}
	return w
}

// CSR is a compressed-sparse-row adjacency matrix, used by the
// sequential reference implementations the distributed apps are tested
// against and by the MapReduce baseline.
type CSR struct {
	N      int32
	RowPtr []int64
	Col    []int32
	W      []float32
}

// NewCSR builds a CSR from edges grouped by destination row: row v
// lists the sources contributing to v (i.e. the transpose orientation
// used by y[dst] += w * x[src]).
func NewCSR(n int32, edges []Edge, weights []float32) *CSR {
	counts := make([]int64, n+1)
	for _, e := range edges {
		counts[e.Dst+1]++
	}
	for i := int32(0); i < n; i++ {
		counts[i+1] += counts[i]
	}
	col := make([]int32, len(edges))
	w := make([]float32, len(edges))
	next := append([]int64(nil), counts[:n]...)
	for i, e := range edges {
		p := next[e.Dst]
		next[e.Dst]++
		col[p] = e.Src
		if weights != nil {
			w[p] = weights[i]
		} else {
			w[p] = 1
		}
	}
	return &CSR{N: n, RowPtr: counts, Col: col, W: w}
}

// Multiply computes y = A x densely: y[v] = sum over stored (v, u, w) of
// w * x[u].
func (a *CSR) Multiply(x, y []float32) {
	for v := int32(0); v < a.N; v++ {
		var sum float32
		for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
			sum += a.W[p] * x[a.Col[p]]
		}
		y[v] = sum
	}
}

// Degrees returns the per-row stored-entry counts (in-degrees in the
// transpose orientation).
func (a *CSR) Degrees() []int32 {
	deg := make([]int32, a.N)
	for v := int32(0); v < a.N; v++ {
		deg[v] = int32(a.RowPtr[v+1] - a.RowPtr[v])
	}
	return deg
}

// DensityOfPartition measures the average fraction of the n vertices
// that appear (as source or destination) in each partition — the
// quantity the paper reports as 0.21 (Twitter, 64-way) and 0.035
// (Yahoo, 64-way) and the input to the design workflow.
func DensityOfPartition(n int64, parts [][]Edge) float64 {
	if len(parts) == 0 {
		return 0
	}
	total := 0.0
	for _, part := range parts {
		seen := make(map[int32]struct{}, len(part))
		for _, e := range part {
			seen[e.Src] = struct{}{}
			seen[e.Dst] = struct{}{}
		}
		total += float64(len(seen)) / float64(n)
	}
	return total / float64(len(parts))
}

// SortEdges orders edges by (src, dst); used by tests for deterministic
// comparison.
func SortEdges(edges []Edge) {
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].Src != edges[b].Src {
			return edges[a].Src < edges[b].Src
		}
		return edges[a].Dst < edges[b].Dst
	})
}
