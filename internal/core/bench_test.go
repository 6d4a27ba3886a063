package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/memnet"
	"kylix/internal/obs"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// benchProtocol measures one protocol phase over an in-process cluster.
func benchProtocol(b *testing.B, degrees []int, nnz int, fused bool) {
	bf := topo.MustNew(degrees)
	rng := rand.New(rand.NewSource(1))
	ws := randWorkloads(rng, bf.M(), nnz*4, nnz, 1, true)
	net := memnet.New(bf.M())
	defer net.Close()
	b.ResetTimer()
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		q := ep.Rank()
		if fused {
			for i := 0; i < b.N; i++ {
				if _, _, err := m.ConfigureReduce(ws[q].in, ws[q].out, ws[q].vals); err != nil {
					return err
				}
			}
			return nil
		}
		cfg, err := m.Configure(ws[q].in, ws[q].out)
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if _, err := cfg.Reduce(ws[q].vals); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReduce8x4x2 measures a cached-config reduce round on the
// paper's 64-machine optimal topology.
func BenchmarkReduce8x4x2(b *testing.B) { benchProtocol(b, []int{8, 4, 2}, 512, false) }

// BenchmarkReduceDirect64 is the direct all-to-all counterpart.
func BenchmarkReduceDirect64(b *testing.B) { benchProtocol(b, []int{64}, 512, false) }

// BenchmarkConfigureReduce16 measures the fused pass with fresh sets.
func BenchmarkConfigureReduce16(b *testing.B) { benchProtocol(b, []int{4, 4}, 512, true) }

// BenchmarkConfigureReduce8x4x2 is the fused pass on the 64-machine
// topology: the full-price baseline that BenchmarkReconfigureWarm's
// <=10% acceptance bound is measured against.
func BenchmarkConfigureReduce8x4x2(b *testing.B) { benchProtocol(b, []int{8, 4, 2}, 512, true) }

// BenchmarkConfigure8x4x2 measures the configuration pass alone
// (index-set routing and union building).
func BenchmarkConfigure8x4x2(b *testing.B) {
	bf := topo.MustNew([]int{8, 4, 2})
	rng := rand.New(rand.NewSource(2))
	ws := randWorkloads(rng, bf.M(), 2048, 512, 1, true)
	net := memnet.New(bf.M())
	defer net.Close()
	b.ResetTimer()
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if _, err := m.Configure(ws[ep.Rank()].in, ws[ep.Rank()].out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReconfigureWarm measures an incremental Reconfigure whose
// sets did not change: every layer ships two-byte markers and reuses
// its unions, so the pass should cost a small fraction of a full
// ConfigureReduce (the acceptance bound is <=10% of its ns/op) and
// allocate nothing on the marker path.
func BenchmarkReconfigureWarm(b *testing.B) {
	bf := topo.MustNew([]int{8, 4, 2})
	rng := rand.New(rand.NewSource(2))
	ws := randWorkloads(rng, bf.M(), 2048, 512, 1, true)
	net := memnet.New(bf.M())
	defer net.Close()
	b.ResetTimer()
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		q := ep.Rank()
		cfg, err := m.Configure(ws[q].in, ws[q].out)
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if err := cfg.Reconfigure(ws[q].in, ws[q].out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReconfigureDrift measures drifting sets, the shape of Ok-Topk
// and SparCML's top-k steps: on a 16-rank 4x4 cluster every rank's 2048
// indices lose a fraction to fresh ones each step, and either one Config
// follows them by Reconfigure + Reduce ("reconfigure") or each step runs
// a ConfigureReduce ("fused"). The steps walk a chain of drifted sets
// forth and back, so every step is one drift. B/op is the whole
// cluster's step; kept_layers/op and rebuilt_layers/op are what each
// rank's Reconfigure did with its layers per step
// (reconfigure_fast_layers, reconfigure_full_layers), and
// config_wire_B/op is what the cluster's configuration messages weigh
// on the wire per step, self-sends included, all counted on a traced
// walk of the chain after the timed one (the tracer's byte accounting
// encodes every configuration piece, which would weigh in B/op) less a
// traced walk of its first step, which configures from nothing.
func BenchmarkReconfigureDrift(b *testing.B) {
	const steps, size, space = 64, 2048, 1 << 16
	bf := topo.MustNew([]int{4, 4})
	for _, pct := range []float64{0.1, 1, 10} {
		rng := rand.New(rand.NewSource(7))
		chain := make([][]sparse.Set, bf.M()) // [rank][step]
		for r := range chain {
			have := map[int32]bool{}
			fresh := func() int32 {
				for {
					if i := rng.Int31n(space); !have[i] {
						have[i] = true
						return i
					}
				}
			}
			idx := make([]int32, size)
			for i := range idx {
				idx[i] = fresh()
			}
			for range steps {
				chain[r] = append(chain[r], sparse.MustNewSet(idx))
				idx = slices.Clone(idx)
				for range max(1, int(size*pct/100)) {
					j := rng.Intn(size)
					delete(have, idx[j])
					idx[j] = fresh()
				}
			}
		}
		for _, fused := range []bool{false, true} {
			b.Run(fmt.Sprintf("%gpct/%s", pct, map[bool]string{false: "reconfigure", true: "fused"}[fused]), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				if err := driftWalk(bf, chain, fused, b.N, nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				o, first, walk := obs.New(bf.M(), 64), obs.New(bf.M(), 64), 2*steps-2
				if err := driftWalk(bf, chain, fused, walk, o); err != nil {
					b.Fatal(err)
				}
				if err := driftWalk(bf, chain, fused, 1, first); err != nil {
					b.Fatal(err)
				}
				per := float64((walk - 1) * bf.M()) // the first step configures
				b.ReportMetric(float64(o.Registry().Counter("reconfigure_fast_layers").Value())/per, "kept_layers/op")
				b.ReportMetric(float64(o.Registry().Counter("reconfigure_full_layers").Value())/per, "rebuilt_layers/op")
				b.ReportMetric(float64(configBytes(o)-configBytes(first))/float64(walk-1), "config_wire_B/op")
			})
		}
	}
}

// configBytes is what o's traffic counted of the configuration plane.
func configBytes(o *obs.Observatory) int64 {
	var n int64
	for _, l := range o.Traffic().Layers() {
		if l.Kind == comm.KindConfig || l.Kind == comm.KindConfigReduce {
			n += l.Bytes
		}
	}
	return n
}

// driftWalk runs n steps of BenchmarkReconfigureDrift on a fresh
// cluster, traced into o unless it is nil.
func driftWalk(bf *topo.Butterfly, chain [][]sparse.Set, fused bool, n int, o *obs.Observatory) error {
	net := memnet.New(bf.M(), memnet.WithObserver(o.Observer))
	defer net.Close()
	vals := make([]float32, len(chain[0][0]))
	return memnet.Run(net, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{Tracer: o.Node(ep.Rank())})
		if err != nil {
			return err
		}
		var cfg *Config
		for i := 0; i < n && err == nil; i++ {
			at := i % (2*len(chain[0]) - 2)
			s := chain[ep.Rank()][min(at, 2*len(chain[0])-2-at)]
			switch {
			case fused:
				_, _, err = m.ConfigureReduce(s, s, vals)
			case cfg == nil:
				cfg, err = m.Configure(s, s)
			default:
				err = cfg.Reconfigure(s, s)
			}
			if err == nil && !fused {
				_, err = cfg.Reduce(vals)
			}
		}
		return err
	})
}

// BenchmarkTreeAllreduce64 measures the §II-A1 baseline; its per-op cost
// and the intermediate blow-up are why the paper dismisses trees.
func BenchmarkTreeAllreduce64(b *testing.B) {
	bf := topo.MustNew([]int{64})
	rng := rand.New(rand.NewSource(3))
	ws := randWorkloads(rng, bf.M(), 2048, 512, 1, true)
	net := memnet.New(bf.M())
	defer net.Close()
	b.ResetTimer()
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := m.TreeAllreduce(ws[ep.Rank()].in, ws[ep.Rank()].out, ws[ep.Rank()].vals); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
