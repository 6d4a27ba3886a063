package core

import (
	"math/rand"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/memnet"
	"kylix/internal/powerlaw"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// mapShape is one benchmark workload's configuration input: its
// topology and index space, the density its power-law sets are drawn
// at, and the benchmark's default seed (benchmark/workloads.go).
type mapShape struct {
	name    string
	degrees []int
	logN    int
	density float64
	width   int
	// before is the shape whose sets and values the benchmark draws
	// from the seed's stream first: tenant B's sets follow tenant A's.
	before *mapShape
}

const benchmarkSeed = 20140901

// draw reproduces the sets the benchmark generates for s.
func (s *mapShape) draw(t *testing.T, rng *rand.Rand) []sparse.Set {
	t.Helper()
	if s.before != nil {
		for _, set := range s.before.draw(t, rng) {
			for i := 0; i < len(set)*s.before.width; i++ {
				rng.Float32()
			}
		}
	}
	gen, err := powerlaw.NewGeneratorForDensity(int64(1)<<s.logN, 0.8, s.density)
	if err != nil {
		t.Fatal(err)
	}
	m := 1
	for _, d := range s.degrees {
		m *= d
	}
	sets := make([]sparse.Set, m)
	for r := range sets {
		sets[r] = gen.NodeSet(rng)
	}
	return sets
}

// meanRun is a strictly increasing position map's length over its
// number of maximal runs of consecutive targets — the elements a run
// kernel (dst[a:a+n] op= src[b:b+n]) would move per index load.
func meanRun(t *testing.T, m []int32) (elems, runs int) {
	t.Helper()
	for p, q := range m {
		if p > 0 && q <= m[p-1] {
			t.Fatalf("position map not strictly increasing at %d: %d after %d", p, q, m[p-1])
		}
		if p == 0 || q != m[p-1]+1 {
			runs++
		}
	}
	return len(m), runs
}

// TestPositionMapRuns decides ROADMAP 2(c) by measurement: at the four
// benchmark workloads' shapes, sizes and seed it configures in ≡ out
// on memnet, asserts that every position map is strictly increasing
// and that the bottom turnaround is the identity, which takes no map
// and no gather, and logs per layer the fill ratio |piece|/|union| and
// the mean run of the maps. Run
// kernels pay only where the layers carrying most elements average
// runs of 8 or more.
func TestPositionMapRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("configures the benchmark's full-size workloads")
	}
	tenantA := &mapShape{name: "tenants-tcp-8 A", degrees: []int{4, 2}, logN: 14, density: 0.21, width: 4}
	for _, s := range []*mapShape{
		{name: "warm-mem-64", degrees: []int{8, 4, 2}, logN: 16, density: 0.21, width: 1},
		{name: "warm-tcp-8", degrees: []int{4, 2}, logN: 13, density: 0.21, width: 4},
		{name: "minibatch-mem-16", degrees: []int{4, 4}, logN: 16, density: 1.0 / 32, width: 1},
		tenantA,
		{name: "tenants-tcp-8 B", degrees: []int{4, 2}, logN: 16, density: 0.035, width: 1, before: tenantA},
	} {
		sets := s.draw(t, rand.New(rand.NewSource(benchmarkSeed)))
		bf := topo.MustNew(s.degrees)
		net := memnet.New(bf.M())
		cfgs := make([]*Config, bf.M())
		err := memnet.Run(net, func(ep comm.Endpoint) error {
			m, err := NewMachine(ep, bf, Options{Width: s.width})
			if err != nil {
				return err
			}
			cfgs[ep.Rank()], err = m.Configure(sets[ep.Rank()], sets[ep.Rank()])
			return err
		})
		net.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.degrees {
			var pieces, unions, outRuns, inElems, inRuns int
			for _, cfg := range cfgs {
				ls := &cfg.layers[i]
				unions += len(ls.outUnion) * len(ls.outMaps)
				for t2, m := range ls.outMaps {
					e, r := meanRun(t, m)
					pieces, outRuns = pieces+e, outRuns+r
					e, r = meanRun(t, ls.inMaps[t2])
					inElems, inRuns = inElems+e, inRuns+r
				}
			}
			t.Logf("%-16s L%d: fill %.3f, mean run out %.2f in %.2f, %d rows per node",
				s.name, i+1, float64(pieces)/float64(unions), float64(pieces)/float64(outRuns),
				float64(inElems)/float64(inRuns), pieces/len(cfgs))
		}
		for r, cfg := range cfgs {
			if cfg.bottomMap != nil || cfg.missing != 0 {
				t.Fatalf("%s rank %d: bottom map of %d entries, %d missing; want the identity (nil) for in ≡ out",
					s.name, r, len(cfg.bottomMap), cfg.missing)
			}
		}
	}
}
