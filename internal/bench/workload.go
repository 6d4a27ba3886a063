package bench

import (
	"fmt"
	"math/rand"
	"time"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/memnet"
	"kylix/internal/obs"
	"kylix/internal/powerlaw"
	"kylix/internal/replica"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// workload is a synthetic sparse-allreduce input: one power-law index
// set per logical machine (in = out, as in the graph workloads where
// both follow the partition's vertex set).
type workload struct {
	sets []sparse.Set
	vals [][]float32
	n    int64
}

// genWorkload draws per-machine sets at the profile's density.
func genWorkload(p profile, n int64, logical int, seed int64) (*workload, error) {
	gen, err := powerlaw.NewGeneratorForDensity(n, p.alpha, p.density)
	if err != nil {
		return nil, err
	}
	w := &workload{n: n}
	for i := 0; i < logical; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		set := gen.NodeSet(rng)
		if len(set) == 0 {
			set = sparse.MustNewSet([]int32{int32(i)})
		}
		vals := make([]float32, len(set))
		for j := range vals {
			vals[j] = rng.Float32()
		}
		w.sets = append(w.sets, set)
		w.vals = append(w.vals, vals)
	}
	return w, nil
}

// runResult aggregates one allreduce round's observations.
type runResult struct {
	col          *obs.Traffic
	bottomOut    int64 // sum over machines of fully reduced bottom sizes
	maxLocalNNZ  int   // largest per-machine set (compute-cost proxy)
	wall         time.Duration
	reduceRounds int
}

// runAllreduce executes configure + reduceRounds reductions of the
// workload over the given topology, with optional replication and dead
// machines, recording all traffic.
func runAllreduce(w *workload, degrees []int, replication int, dead []int, reduceRounds int) (*runResult, error) {
	bf, err := topo.New(degrees)
	if err != nil {
		return nil, err
	}
	logical := bf.M()
	if logical != len(w.sets) {
		return nil, fmt.Errorf("bench: workload has %d partitions, topology %d", len(w.sets), logical)
	}
	phys := logical * replication
	col := obs.NewTraffic(phys)
	net := memnet.New(phys, memnet.WithObserver(col.Observer), memnet.WithRecvTimeout(60*time.Second))
	defer net.Close()
	for _, d := range dead {
		net.Kill(d)
	}

	bottoms := make([]int64, phys)
	start := time.Now()
	err = memnet.Run(net, func(pep comm.Endpoint) error {
		ep, err := replica.Wrap(pep, nil, replication)
		if err != nil {
			return err
		}
		q := ep.Rank()
		m, err := core.NewMachine(ep, bf, core.Options{})
		if err != nil {
			return err
		}
		cfg, err := m.Configure(w.sets[q], w.sets[q])
		if err != nil {
			return err
		}
		bottoms[pep.Rank()] = int64(cfg.BottomOutSize())
		for r := 0; r < reduceRounds; r++ {
			if _, err := cfg.Reduce(w.vals[q]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &runResult{col: col, wall: time.Since(start), reduceRounds: reduceRounds}
	// Bottom volume counted once per logical machine (primary replica).
	for p, b := range bottoms {
		if p < logical {
			res.bottomOut += b
		}
	}
	for _, s := range w.sets {
		if len(s) > res.maxLocalNNZ {
			res.maxLocalNNZ = len(s)
		}
	}
	return res, nil
}
