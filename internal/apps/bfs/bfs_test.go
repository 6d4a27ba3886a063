package bfs

import (
	"math/rand"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/graph"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// convStream is the convergence counter's tag namespace beside the main
// network's default one.
const convStream comm.StreamID = 1

func runDistributed(t *testing.T, m int, edges []graph.Edge, source int32, maxRounds int) []*Result {
	t.Helper()
	bf := topo.MustNew([]int{m})
	rng := rand.New(rand.NewSource(4))
	parts := graph.PartitionEdges(rng, edges, m)
	shards := make([]*graph.Shard, m)
	for i := range parts {
		s, err := graph.BuildShard(parts[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = s
	}
	net := memnet.New(m)
	defer net.Close()
	results := make([]*Result, m)
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		mach, err := core.NewMachine(ep, bf, core.Options{Reducer: sparse.Min})
		if err != nil {
			return err
		}
		conv, err := core.NewMachine(ep, bf, core.Options{Stream: convStream})
		if err != nil {
			return err
		}
		res, err := RunNode(mach, conv, shards[ep.Rank()], source, maxRounds)
		if err != nil {
			return err
		}
		results[ep.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func checkAgainstSequential(t *testing.T, n int32, edges []graph.Edge, source int32, results []*Result) {
	t.Helper()
	want := Sequential(n, edges, source)
	for r, res := range results {
		if !res.Converged {
			t.Fatalf("machine %d did not converge", r)
		}
		for i, k := range res.Vertices {
			if res.Dist[i] != want[k.Index()] {
				t.Fatalf("machine %d vertex %d: dist %d, want %d", r, k.Index(), res.Dist[i], want[k.Index()])
			}
		}
	}
}

func TestBFSPath(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	results := runDistributed(t, 2, edges, 0, 10)
	checkAgainstSequential(t, 4, edges, 0, results)
}

func TestBFSUnreachable(t *testing.T) {
	// Vertex 3 only has an edge *into* the component; from source 0 the
	// back part is unreachable.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 3, Dst: 0}}
	results := runDistributed(t, 2, edges, 0, 10)
	checkAgainstSequential(t, 4, edges, 0, results)
	// Explicitly: vertex 3 must be Unreached wherever tracked.
	for _, res := range results {
		for i, k := range res.Vertices {
			if k.Index() == 3 && res.Dist[i] != Unreached {
				t.Fatalf("vertex 3 got distance %d", res.Dist[i])
			}
		}
	}
}

func TestBFSRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 3; trial++ {
		n := int64(150)
		edges := graph.GenPowerLaw(rng, n, 500, 0.8, 0.8)
		source := int32(rng.Int63n(n))
		results := runDistributed(t, 4, edges, source, 60)
		checkAgainstSequential(t, int32(n), edges, source, results)
	}
}

func TestBFSValidatesParams(t *testing.T) {
	net := memnet.New(1)
	defer net.Close()
	bf := topo.MustNew([]int{1})
	m, _ := core.NewMachine(net.Endpoint(0), bf, core.Options{Reducer: sparse.Min})
	conv, _ := core.NewMachine(net.Endpoint(0), bf, core.Options{Stream: convStream})
	shard, _ := graph.BuildShard([]graph.Edge{{Src: 0, Dst: 1}}, nil)
	if _, err := RunNode(m, conv, shard, 0, 0); err == nil {
		t.Fatal("accepted maxRounds 0")
	}
}

func TestSequentialBFS(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}}
	d := Sequential(4, edges, 0)
	if d[0] != 0 || d[1] != 1 || d[2] != 1 || d[3] != Unreached {
		t.Fatalf("dist = %v", d)
	}
}
