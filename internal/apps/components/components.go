// Package components finds weakly/strongly-directed connected components
// by distributed label propagation — the "connected components ... can be
// computed from such matrix-vector products" application of §I-A2. Each
// vertex carries the minimum vertex id it has heard of; one MIN-allreduce
// per round propagates labels along edges, and a piggybacked one-feature
// SUM-allreduce detects global convergence.
package components

import (
	"kylix/internal/core"
	"kylix/internal/graph"
)

// Result is one machine's outcome.
type Result struct {
	// Labels holds the final component label (minimum reachable vertex
	// id) for each In vertex of the shard, aligned with shard.In.
	Labels []int32
	// Rounds is the number of propagation rounds executed.
	Rounds int
	// Converged reports whether propagation reached a fixed point.
	Converged bool
}

// RunNode propagates labels collectively. The main machine must be built
// with sparse.Min and the convergence machine with the default sum
// reducer in a distinct core.Options.Stream. Labels propagate along edge direction;
// run on a symmetrized edge list for weakly connected components.
func RunNode(m *core.Machine, convergence *core.Machine, shard *graph.Shard, maxRounds int) (*Result, error) {
	labels := make([]float32, len(shard.In))
	for i, k := range shard.In {
		labels[i] = float32(k.Index())
	}
	totals, err := shard.Relax("components", m, convergence, shard.In, labels, 0, maxRounds)
	if err != nil {
		return nil, err
	}
	res := &Result{Labels: make([]int32, len(labels)), Rounds: len(totals)}
	res.Converged = res.Rounds > 0 && totals[res.Rounds-1] == 0
	for i, l := range labels {
		res.Labels[i] = int32(l)
	}
	return res, nil
}

// Sequential computes component labels by iterating label propagation to
// a fixed point on one machine (labels propagate along edge direction,
// matching RunNode).
func Sequential(n int32, edges []graph.Edge) []int32 {
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v)
	}
	for {
		changed := false
		for _, e := range edges {
			if labels[e.Src] < labels[e.Dst] {
				labels[e.Dst] = labels[e.Src]
				changed = true
			}
		}
		if !changed {
			return labels
		}
	}
}

// Symmetrize doubles an edge list with reversed copies so label
// propagation computes weakly connected components.
func Symmetrize(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, graph.Edge{Src: e.Dst, Dst: e.Src})
	}
	return out
}
