// Package diameter estimates graph diameter HADI-style (the paper cites
// it as a sparse-allreduce application in §I-A2): every vertex carries
// Flajolet-Martin bitstring sketches of its h-hop in-neighbourhood, one
// OR-allreduce per hop grows the sketches, and the effective diameter is
// the hop count at which sketches stop changing. The bitwise-OR reducer
// exercises Kylix's pluggable-reduction path.
package diameter

import (
	"fmt"
	"math"

	"kylix/internal/core"
	"kylix/internal/graph"
	"kylix/internal/sparse"
)

// InitSketch returns vertex v's initial FM sketch word for sketch j:
// a single bit at geometrically distributed position, derived
// deterministically from (v, j, seed) so every machine materializes the
// same sketch without coordination.
func InitSketch(v int32, j int, seed int64) uint32 {
	h := uint64(uint32(v))*0x9E3779B97F4A7C15 ^ uint64(j+1)*0xBF58476D1CE4E5B9 ^ uint64(seed)
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	// Position of lowest set bit of a uniform word is Geometric(1/2).
	if h == 0 {
		return 1 << 31
	}
	bit := 0
	for h&1 == 0 && bit < 31 {
		h >>= 1
		bit++
	}
	return 1 << uint(bit)
}

// Result reports one machine's diameter estimation outcome.
type Result struct {
	// Diameter is the first hop count at which no sketch changed
	// anywhere in the graph (an effective-diameter estimate; maxIters+1
	// means it did not converge within the budget).
	Diameter int
	// Changes is the global per-hop changed-sketch count, obtained via a
	// one-feature sum-allreduce piggybacked on the same machines.
	// Vertices held by several machines are counted once per holder,
	// which does not affect the zero-test the stopping rule uses.
	Changes []int
	// Vertices lists the vertices this machine tracks (the union of its
	// shard's sources and destinations — destinations included so that
	// pure sinks, whose sketches can still grow, are watched by the
	// convergence test).
	Vertices sparse.Set
	// Sketches holds the final sketch words (width per vertex), aligned
	// with Vertices, for neighbourhood-size estimation.
	Sketches []float32
}

// RunNode estimates the diameter collectively. width is the number of
// 32-bit sketch words per vertex (more words, tighter estimates).
func RunNode(m *core.Machine, convergence *core.Machine, shard *graph.Shard, maxIters, width int, seed int64) (*Result, error) {
	if width < 1 {
		return nil, fmt.Errorf("diameter: width %d must be >= 1", width)
	}
	// Track every locally incident vertex: sources feed the product,
	// and destinations must be watched so a growing sink still counts
	// as a change.
	tracked := sparse.TreeUnion([]sparse.Set{shard.In, shard.Out})
	cur := make([]float32, len(tracked)*width)
	for i, k := range tracked {
		for j := 0; j < width; j++ {
			cur[i*width+j] = math.Float32frombits(InitSketch(k.Index(), j, seed))
		}
	}
	// Each hop ORs in-neighbour sketches per destination, ORs what comes
	// back into the tracked sketches and counts the words that grew.
	totals, err := shard.Propagate("diameter", m, convergence, tracked, width, 0, maxIters,
		func(out []float32, src, dst int) {
			for j := range width {
				out[dst*width+j] = orBits(out[dst*width+j], cur[src*width+j])
			}
		},
		func(got []float32) (changed int) {
			for i, g := range got {
				if next := orBits(cur[i], g); math.Float32bits(next) != math.Float32bits(cur[i]) {
					cur[i], changed = next, changed+1
				}
			}
			return changed
		})
	if err != nil {
		return nil, err
	}
	res := &Result{Diameter: maxIters + 1, Changes: totals, Vertices: tracked, Sketches: cur}
	if n := len(totals); n > 0 && totals[n-1] == 0 {
		res.Diameter = n - 1
	}
	return res, nil
}

// orBits ORs two float32-encoded bit masks.
func orBits(a, b float32) float32 {
	return math.Float32frombits(math.Float32bits(a) | math.Float32bits(b))
}

// EstimateNeighbourhood converts a vertex's sketch words into a
// Flajolet-Martin estimate of its reachable-set size.
func EstimateNeighbourhood(sketch []float32) float64 {
	if len(sketch) == 0 {
		return 0
	}
	sum := 0.0
	for _, w := range sketch {
		bits := math.Float32bits(w)
		b := 0
		for b < 32 && bits&(1<<uint(b)) != 0 {
			b++
		}
		sum += float64(b)
	}
	return math.Pow(2, sum/float64(len(sketch))) / 0.77351
}

// SequentialSketchDiameter runs the identical sketch propagation on a
// single machine: the exact oracle for the distributed algorithm (same
// InitSketch seeds, same OR dynamics, same stopping rule). Because
// Flajolet-Martin bits can collide, its result may fall short of the
// true diameter by a hop or two; RunNode must match it exactly.
func SequentialSketchDiameter(n int32, edges []graph.Edge, maxIters, width int, seed int64) int {
	cur := make([]uint32, int(n)*width)
	for v := int32(0); v < n; v++ {
		for j := 0; j < width; j++ {
			cur[int(v)*width+j] = InitSketch(v, j, seed)
		}
	}
	for h := 1; h <= maxIters; h++ {
		next := append([]uint32(nil), cur...)
		for _, e := range edges {
			for j := 0; j < width; j++ {
				next[int(e.Dst)*width+j] |= cur[int(e.Src)*width+j]
			}
		}
		changed := false
		for i := range cur {
			if next[i] != cur[i] {
				changed = true
				break
			}
		}
		cur = next
		if !changed {
			return h - 1
		}
	}
	return maxIters + 1
}

// SequentialDiameter computes the exact "no change" hop count by dense
// reachability propagation — the reference the distributed estimate is
// tested against on small graphs. It returns the number of hops until
// reachability sets stop growing.
func SequentialDiameter(n int32, edges []graph.Edge, maxIters int) int {
	reach := make([]map[int32]bool, n)
	for v := range reach {
		reach[v] = map[int32]bool{int32(v): true}
	}
	for h := 1; h <= maxIters; h++ {
		changed := false
		next := make([]map[int32]bool, n)
		for v := range next {
			next[v] = make(map[int32]bool, len(reach[v]))
			for u := range reach[v] {
				next[v][u] = true
			}
		}
		for _, e := range edges {
			for u := range reach[e.Src] {
				if !next[e.Dst][u] {
					next[e.Dst][u] = true
					changed = true
				}
			}
		}
		reach = next
		if !changed {
			return h - 1
		}
	}
	return maxIters + 1
}
