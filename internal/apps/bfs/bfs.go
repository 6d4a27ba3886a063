// Package bfs computes single-source shortest hop distances (directed
// breadth-first search) with distributed sparse matrix-vector products —
// one of the §I-A2 graph workloads ("connected components, breadth-first
// search, and eigenvalues can be computed from such matrix-vector
// products"). Each round relaxes distances along edges through a
// MIN-allreduce; a piggybacked one-feature SUM-allreduce detects
// frontier exhaustion.
package bfs

import (
	"fmt"
	"math"

	"kylix/internal/core"
	"kylix/internal/graph"
	"kylix/internal/sparse"
)

// Unreached marks vertices the source cannot reach.
const Unreached = int32(-1)

// Result is one machine's BFS outcome.
type Result struct {
	// Dist holds hop distances for the machine's tracked vertices
	// (aligned with Vertices); Unreached where the source has no path.
	Dist []int32
	// Vertices lists the vertices this machine tracks (its shard's
	// sources and destinations).
	Vertices sparse.Set
	// Rounds is the number of relaxation rounds executed.
	Rounds int
	// Converged reports whether the frontier emptied within the budget.
	Converged bool
}

// RunNode runs BFS from the given source collectively. The main machine
// must use sparse.Min; the convergence machine uses the default sum
// reducer in a distinct core.Options.Stream.
func RunNode(m *core.Machine, convergence *core.Machine, shard *graph.Shard, source int32, maxRounds int) (*Result, error) {
	if maxRounds < 1 {
		return nil, fmt.Errorf("bfs: maxRounds %d must be >= 1", maxRounds)
	}
	tracked := sparse.TreeUnion([]sparse.Set{shard.In, shard.Out})
	dist := make([]float32, len(tracked))
	for i, k := range tracked {
		if dist[i] = float32(math.Inf(1)); k.Index() == source {
			dist[i] = 0
		}
	}
	totals, err := shard.Relax("bfs", m, convergence, tracked, dist, 1, maxRounds)
	if err != nil {
		return nil, err
	}
	res := &Result{Dist: make([]int32, len(dist)), Vertices: tracked, Rounds: len(totals), Converged: totals[len(totals)-1] == 0}
	for i, d := range dist {
		if res.Dist[i] = Unreached; !math.IsInf(float64(d), 1) {
			res.Dist[i] = int32(d)
		}
	}
	return res, nil
}

// Sequential is the single-machine reference BFS (directed).
func Sequential(n int32, edges []graph.Edge, source int32) []int32 {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[source] = 0
	frontier := []int32{source}
	for level := int32(1); len(frontier) > 0; level++ {
		var next []int32
		for _, v := range frontier {
			for _, u := range adj[v] {
				if dist[u] == Unreached {
					dist[u] = level
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}
