package core

import (
	"math/rand"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/memnet"
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
