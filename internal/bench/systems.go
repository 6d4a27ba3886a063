package bench

import (
	"fmt"
	"math/rand"
	"time"

	"kylix/internal/apps/pagerank"
	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/graph"
	"kylix/internal/mapreduce"
	"kylix/internal/memnet"
	"kylix/internal/netsim"
	"kylix/internal/obs"
	"kylix/internal/powerlaw"
	"kylix/internal/topo"
)

// pagerankDataset is one synthetic graph profile for the system
// comparison.
type pagerankDataset struct {
	name  string
	n     int64
	edges []graph.Edge
	parts [][]graph.Edge
}

// genPagerankDatasets builds the Twitter-like (denser) and Yahoo-like
// (sparser, more vertices) graphs at the experiment scale.
func genPagerankDatasets(sc Scale) []pagerankDataset {
	rng := rand.New(rand.NewSource(sc.Seed))
	nEdges := int(sc.N) * sc.EdgesPerVertex
	out := make([]pagerankDataset, 0, 2)
	// Twitter-like: n vertices, dense partitions.
	tw := pagerankDataset{name: "twitter-like", n: sc.N}
	tw.edges = graph.GenPowerLaw(rng, tw.n, nEdges, 0.8, 0.8)
	tw.parts = graph.PartitionEdges(rng, tw.edges, sc.Machines)
	out = append(out, tw)
	// Yahoo-like: 4x the vertices with the same edge budget: much
	// sparser partitions (the paper's 0.21 vs 0.035 contrast).
	ya := pagerankDataset{name: "yahoo-like", n: 4 * sc.N}
	ya.edges = graph.GenPowerLaw(rng, ya.n, nEdges, 0.8, 0.8)
	ya.parts = graph.PartitionEdges(rng, ya.edges, sc.Machines)
	out = append(out, ya)
	return out
}

// pagerankRun holds the measured outcome of a distributed PageRank.
type pagerankRun struct {
	col *obs.Traffic
	// maxShardNNZ bounds per-iteration local compute.
	maxShardNNZ int
	wall        time.Duration
}

// runPagerank executes the distributed PageRank over the given degrees
// and records its traffic.
func runPagerank(ds pagerankDataset, degrees []int, iters int) (*pagerankRun, error) {
	bf, err := topo.New(degrees)
	if err != nil {
		return nil, err
	}
	m := bf.M()
	if m != len(ds.parts) {
		return nil, fmt.Errorf("bench: %d partitions for %d machines", len(ds.parts), m)
	}
	shards, err := pagerank.BuildShards(ds.n, ds.edges, ds.parts)
	if err != nil {
		return nil, err
	}
	col := obs.NewTraffic(m)
	net := memnet.New(m, memnet.WithObserver(col.Observer), memnet.WithRecvTimeout(120*time.Second))
	defer net.Close()
	start := time.Now()
	err = memnet.Run(net, func(ep comm.Endpoint) error {
		mach, err := core.NewMachine(ep, bf, core.Options{})
		if err != nil {
			return err
		}
		_, err = pagerank.RunNode(mach, shards[ep.Rank()], ds.n, iters)
		return err
	})
	if err != nil {
		return nil, err
	}
	run := &pagerankRun{col: col, wall: time.Since(start)}
	for _, s := range shards {
		if s.NNZ() > run.maxShardNNZ {
			run.maxShardNNZ = s.NNZ()
		}
	}
	return run, nil
}

// perIterSeconds converts a PageRank run into modelled per-iteration
// seconds: the reduce+gather network time (configuration runs once and
// is excluded, as in the paper's per-iteration numbers) plus the local
// SpMV compute.
func perIterSeconds(run *pagerankRun, model netsim.Model, iters int) (compute, comm float64) {
	rep := netsim.Estimate(run.col.Layers(), run.col.Machines(), model, model.Cores)
	comm = rep.ReduceSec / float64(iters)
	compute = model.ComputeTime(int64(run.maxShardNNZ))
	return compute, comm
}

// Figure8 reproduces the system comparison on PageRank: Kylix (optimal
// butterfly), the direct all-to-all pattern standing in for PowerGraph,
// and the MapReduce engine standing in for Hadoop/Pegasus. The paper
// reports Kylix 3-7x faster than PowerGraph and ~500x faster than
// Hadoop; log-scale gaps of those magnitudes are the target shape.
func Figure8(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 8: PageRank runtime per iteration by system (modelled EC2 seconds)",
		Note:   "kylix = optimal nested butterfly; direct(powergraph-proxy) = all-to-all\npattern PowerGraph uses; mapreduce(hadoop-proxy) = per-iteration disk+shuffle jobs",
		Header: []string{"dataset", "system", "perIterSec", "vsKylix"},
	}
	anchors := map[string]float64{
		"twitter-like": twitterProfile().paperNodeBytes,
		"yahoo-like":   yahooProfile().paperNodeBytes,
	}
	for _, ds := range genPagerankDatasets(sc) {
		density := graph.DensityOfPartition(ds.n, ds.parts)
		model := scaledEC2(density*float64(ds.n)*4, anchors[ds.name])
		degrees, err := designForDensity(model, ds.n, density, sc.Machines)
		if err != nil {
			return nil, err
		}
		kylixRun, err := runPagerank(ds, degrees, sc.PageRankIters)
		if err != nil {
			return nil, err
		}
		kc, kn := perIterSeconds(kylixRun, model, sc.PageRankIters)
		kylixSec := kc + kn

		directRun, err := runPagerank(ds, topo.Direct(sc.Machines), sc.PageRankIters)
		if err != nil {
			return nil, err
		}
		dc, dn := perIterSeconds(directRun, model, sc.PageRankIters)
		directSec := dc + dn

		engine := &mapreduce.Engine{Machines: sc.Machines}
		_, _, mrSec, err := mapreduce.PageRank(engine, int32(ds.n), ds.parts, sc.PageRankIters, pagerank.Damping, model)
		if err != nil {
			return nil, err
		}

		for _, row := range []struct {
			system string
			sec    float64
		}{
			{"kylix", kylixSec},
			{"direct (powergraph-proxy)", directSec},
			{"mapreduce (hadoop-proxy)", mrSec},
		} {
			t.Rows = append(t.Rows, []string{
				ds.name, row.system, f6(row.sec), fmt.Sprintf("%.1fx", row.sec/kylixSec),
			})
		}
	}
	return t, nil
}

// Figure9 reproduces the scaling study: per-iteration compute/comm
// breakdown and speedup over the smallest cluster as machine count
// grows, with degrees retuned per size. The paper sees 7-11x speedup at
// 64 nodes over 4 and communication dominating beyond 32.
func Figure9(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 9: PageRank scaling with cluster size (modelled EC2 seconds/iter)",
		Note:   "degrees retuned per cluster size; speedup relative to the smallest\nsize; communication share grows with m",
		Header: []string{"machines", "degrees", "computeSec", "commSec", "totalSec", "speedup", "commShare"},
	}
	sizes := []int{4, 8, 16, 32, 64}
	var filtered []int
	for _, m := range sizes {
		if m <= sc.Machines {
			filtered = append(filtered, m)
		}
	}
	rng := rand.New(rand.NewSource(sc.Seed + 1))
	n := sc.N
	edges := graph.GenPowerLaw(rng, n, int(n)*sc.EdgesPerVertex, 0.8, 0.8)
	// The model constants are fixed across cluster sizes (they describe
	// the network, not the workload); anchor them on the widest
	// partitioning, matching the Twitter experiment's 64-way density.
	anchorDensity := graph.DensityOfPartition(n, graph.PartitionEdges(rand.New(rand.NewSource(sc.Seed+2)), edges, filtered[len(filtered)-1]))
	model := scaledEC2(anchorDensity*float64(n)*4, twitterProfile().paperNodeBytes)
	var baseSec float64
	for _, m := range filtered {
		parts := graph.PartitionEdges(rng, edges, m)
		ds := pagerankDataset{name: "scaling", n: n, edges: edges, parts: parts}
		density := graph.DensityOfPartition(n, parts)
		degrees, err := designForDensity(model, n, density, m)
		if err != nil {
			return nil, err
		}
		run, err := runPagerank(ds, degrees, sc.PageRankIters)
		if err != nil {
			return nil, err
		}
		compute, commSec := perIterSeconds(run, model, sc.PageRankIters)
		total := compute + commSec
		if baseSec == 0 {
			baseSec = total
		}
		t.Rows = append(t.Rows, []string{
			fi(int64(m)), topo.MustNew(degrees).String(),
			f6(compute), f6(commSec), f6(total),
			fmt.Sprintf("%.1fx", baseSec/total),
			fmt.Sprintf("%.0f%%", 100*commSec/total),
		})
	}
	return t, nil
}

// designForDensity runs the §IV workflow at experiment scale: the
// packet floor is the scaled model's ~80%-of-peak packet size, mirroring
// how the paper reads its 5 MB floor off Figure 2.
func designForDensity(model netsim.Model, n int64, density float64, m int) ([]int, error) {
	if density <= 0 {
		density = 0.01
	}
	if density >= 1 {
		density = 0.99
	}
	minPacket := model.MinEfficientPacket(0.8)
	if minPacket < 64 {
		minPacket = 64
	}
	return designOrFallback(n, density, m, minPacket)
}

func designOrFallback(n int64, density float64, m int, minPacket float64) ([]int, error) {
	degrees, err := powerlaw.Design(powerlaw.DesignInput{
		N: n, Alpha: 0.8, Density0: density,
		Machines: m, ElemBytes: 4, MinPacket: minPacket,
	})
	if err != nil {
		// Fall back to the canonical heterogeneous shape rather than
		// failing the whole experiment.
		return scaleDegrees([]int{8, 4, 2}, m), nil
	}
	return degrees, nil
}
