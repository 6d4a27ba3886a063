package diameter

import (
	"math"
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

func runDistributed(t *testing.T, m int, n int64, edges []graph.Edge, maxIters, width int) []*Result {
	t.Helper()
	bf := topo.MustNew([]int{m})
	rng := rand.New(rand.NewSource(3))
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
		mach, err := core.NewMachine(ep, bf, core.Options{Reducer: sparse.Or, Width: width})
		if err != nil {
			return err
		}
		conv, err := core.NewMachine(ep, bf, core.Options{Stream: convStream})
		if err != nil {
			return err
		}
		res, err := RunNode(mach, conv, shards[ep.Rank()], maxIters, width, 42)
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

func TestInitSketchDeterministicAndGeometric(t *testing.T) {
	if InitSketch(5, 0, 1) != InitSketch(5, 0, 1) {
		t.Fatal("not deterministic")
	}
	if InitSketch(5, 0, 1) == InitSketch(5, 1, 1) && InitSketch(6, 0, 1) == InitSketch(5, 0, 1) {
		t.Fatal("sketches not varying")
	}
	// Bit position distribution: bit 0 should appear for roughly half
	// the vertices.
	bit0 := 0
	const trials = 4000
	for v := int32(0); v < trials; v++ {
		if InitSketch(v, 0, 7)&1 == 1 {
			bit0++
		}
	}
	if bit0 < trials/2-200 || bit0 > trials/2+200 {
		t.Fatalf("bit-0 frequency %d of %d, want ~half", bit0, trials)
	}
	// Exactly one bit set always.
	for v := int32(0); v < 100; v++ {
		s := InitSketch(v, 3, 9)
		if s == 0 || s&(s-1) != 0 {
			t.Fatalf("sketch %b is not a single bit", s)
		}
	}
}

func TestDiameterPathGraph(t *testing.T) {
	// A directed path 0->1->2->3->4 stabilizes after 4 hops exactly;
	// the distributed run must match the single-machine sketch oracle
	// bit for bit, and the FM estimate must land within 2 of the truth.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}}
	exact := SequentialDiameter(5, edges, 10)
	if exact != 4 {
		t.Fatalf("sequential reference says %d, want 4", exact)
	}
	oracle := SequentialSketchDiameter(5, edges, 10, 4, 42)
	results := runDistributed(t, 2, 5, edges, 10, 4)
	for r, res := range results {
		if res.Diameter != oracle {
			t.Fatalf("machine %d estimated diameter %d, sketch oracle %d (changes %v)", r, res.Diameter, oracle, res.Changes)
		}
		if res.Diameter > exact || res.Diameter < exact-2 {
			t.Fatalf("machine %d estimate %d too far from exact %d", r, res.Diameter, exact)
		}
	}
}

func TestDiameterMatchesSketchOracleOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		n := int64(60)
		edges := graph.GenPowerLaw(rng, n, 150, 0.8, 0.8)
		oracle := SequentialSketchDiameter(int32(n), edges, 30, 4, 42)
		exact := SequentialDiameter(int32(n), edges, 30)
		results := runDistributed(t, 4, n, edges, 30, 4)
		for r, res := range results {
			if res.Diameter != oracle {
				t.Fatalf("trial %d machine %d: estimated %d, sketch oracle %d", trial, r, res.Diameter, oracle)
			}
		}
		// The FM approximation never overshoots the exact hop count and
		// stays close below it.
		if oracle > exact || oracle < exact-2 {
			t.Fatalf("trial %d: sketch oracle %d vs exact %d", trial, oracle, exact)
		}
	}
}

func TestDiameterConvergenceCountsAgree(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 2, Dst: 3}}
	results := runDistributed(t, 2, 4, edges, 10, 2)
	// All machines see identical global change counts.
	for r := 1; r < len(results); r++ {
		if len(results[r].Changes) != len(results[0].Changes) {
			t.Fatal("machines disagree on rounds")
		}
		for i := range results[0].Changes {
			if results[r].Changes[i] != results[0].Changes[i] {
				t.Fatal("machines disagree on change counts")
			}
		}
	}
	// Last round has zero changes by construction.
	last := results[0].Changes[len(results[0].Changes)-1]
	if last != 0 {
		t.Fatalf("did not converge: %v", results[0].Changes)
	}
}

func TestRunNodeValidatesWidth(t *testing.T) {
	net := memnet.New(1)
	defer net.Close()
	bf := topo.MustNew([]int{1})
	m, _ := core.NewMachine(net.Endpoint(0), bf, core.Options{Reducer: sparse.Or})
	conv, _ := core.NewMachine(net.Endpoint(0), bf, core.Options{Stream: convStream})
	shard, _ := graph.BuildShard([]graph.Edge{{Src: 0, Dst: 1}}, nil)
	if _, err := RunNode(m, conv, shard, 5, 0, 1); err == nil {
		t.Fatal("accepted width 0")
	}
}

func TestEstimateNeighbourhood(t *testing.T) {
	if EstimateNeighbourhood(nil) != 0 {
		t.Fatal("empty sketch should estimate 0")
	}
	// All-low-bits-set sketches estimate large neighbourhoods.
	big := []float32{math.Float32frombits(0xFF), math.Float32frombits(0xFF)}
	small := []float32{math.Float32frombits(0x1), math.Float32frombits(0x1)}
	if EstimateNeighbourhood(big) <= EstimateNeighbourhood(small) {
		t.Fatal("estimate not monotone in sketch density")
	}
}

func TestSequentialDiameterDisconnected(t *testing.T) {
	// Two isolated vertices: nothing propagates, diameter 0... after the
	// first no-change round.
	if d := SequentialDiameter(2, nil, 5); d != 0 {
		t.Fatalf("diameter of empty graph = %d, want 0", d)
	}
}
