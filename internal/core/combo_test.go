package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/memnet"
	"kylix/internal/powerlaw"
	"kylix/internal/replica"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// TestConfigureReduceWidth3 covers the fused pass with multi-column
// features.
func TestConfigureReduceWidth3(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	bf := topo.MustNew([]int{2, 2})
	ws := randWorkloads(rng, bf.M(), 200, 25, 3, true)
	want := refReduce(ws, sparse.Sum, 3)
	net := memnet.New(bf.M())
	defer net.Close()
	got := make([][]float32, bf.M())
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{Width: 3})
		if err != nil {
			return err
		}
		_, res, err := m.ConfigureReduce(ws[ep.Rank()].in, ws[ep.Rank()].out, ws[ep.Rank()].vals)
		got[ep.Rank()] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range ws {
		if !almostEqual(got[r], want[r], 1e-4) {
			t.Fatalf("rank %d width-3 fused mismatch", r)
		}
	}
}

// TestConfigureReduceUnderReplication covers the fused pass through the
// replica layer with a failure present.
func TestConfigureReduceUnderReplication(t *testing.T) {
	const logical, s = 4, 2
	bf := topo.MustNew([]int{2, 2})
	rng := rand.New(rand.NewSource(67))
	ws := randWorkloads(rng, logical, 200, 25, 1, true)
	want := refReduce(ws, sparse.Sum, 1)
	net := memnet.New(logical*s, memnet.WithRecvTimeout(5*time.Second))
	defer net.Close()
	net.Kill(6) // logical 2's secondary
	got := make([][]float32, logical*s)
	err := memnet.Run(net, func(pep comm.Endpoint) error {
		ep, err := replica.Wrap(pep, nil, s)
		if err != nil {
			return err
		}
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		q := ep.Rank()
		_, res, err := m.ConfigureReduce(ws[q].in, ws[q].out, ws[q].vals)
		got[pep.Rank()] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range got {
		if got[p] == nil {
			continue
		}
		if !almostEqual(got[p], want[p%logical], 1e-4) {
			t.Fatalf("phys %d fused+replicated mismatch", p)
		}
	}
}

// TestTreeAllreduceMinReducer covers the tree baseline with a
// non-default reducer and identity fill for uncovered in-indices.
func TestTreeAllreduceMinReducer(t *testing.T) {
	net := memnet.New(3)
	defer net.Close()
	bf := topo.MustNew([]int{3})
	results := make([][]float32, 3)
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{Reducer: sparse.Min})
		if err != nil {
			return err
		}
		in := sparse.MustNewSet([]int32{1, 999}) // 999 has no contributor
		out := sparse.MustNewSet([]int32{1})
		res, _, err := m.TreeAllreduce(in, out, []float32{float32(10 - ep.Rank())})
		results[ep.Rank()] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	in := sparse.MustNewSet([]int32{1, 999})
	p1, _ := in.Position(sparse.MakeKey(1))
	p999, _ := in.Position(sparse.MakeKey(999))
	for r, res := range results {
		if res[p1] != 8 { // min(10, 9, 8)
			t.Fatalf("rank %d min = %f", r, res[p1])
		}
		if !math.IsInf(float64(res[p999]), 1) {
			t.Fatalf("rank %d uncovered index = %f, want +Inf identity", r, res[p999])
		}
	}
}

// TestLargeScaleValidation runs the paper's 64-machine Twitter-profile
// configuration at a larger feature space and validates both protocol
// correctness (spot-checked against brute force) and the Figure 5
// monotone-shrink property on the measured layer unions. Skipped with
// -short.
func TestLargeScaleValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("large workload")
	}
	const n = 1 << 17
	bf := topo.MustNew([]int{8, 4, 2})
	gen, err := powerlaw.NewGeneratorForDensity(n, 0.8, 0.21)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]sparse.Set, bf.M())
	vals := make([][]float32, bf.M())
	for r := range sets {
		rng := rand.New(rand.NewSource(int64(r) * 31))
		sets[r] = gen.NodeSet(rng)
		vals[r] = make([]float32, len(sets[r]))
		for i := range vals[r] {
			vals[r][i] = 1
		}
	}
	net := memnet.New(bf.M(), memnet.WithRecvTimeout(120*time.Second))
	defer net.Close()
	results := make([][]float32, bf.M())
	unionSizes := make([][]int, bf.M())
	err = memnet.Run(net, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		cfg, err := m.Configure(sets[ep.Rank()], sets[ep.Rank()])
		if err != nil {
			return err
		}
		_, outs := cfg.LayerUnionSizes()
		unionSizes[ep.Rank()] = outs
		res, err := cfg.Reduce(vals[ep.Rank()])
		results[ep.Rank()] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Spot check: values must equal the multiplicity of the key across
	// machines (every contribution was 1.0).
	counts := map[sparse.Key]float32{}
	for _, s := range sets {
		for _, k := range s {
			counts[k]++
		}
	}
	for _, r := range []int{0, 17, 63} {
		for i, k := range sets[r] {
			if results[r][i] != counts[k] {
				t.Fatalf("rank %d key %d: got %f want %f", r, k.Index(), results[r][i], counts[k])
			}
		}
	}
	// Figure 5 property on real state: total union elements shrink layer
	// by layer (layer data = union size x range already divided).
	totals := make([]int, bf.Layers())
	for _, outs := range unionSizes {
		for l, v := range outs {
			totals[l] += v
		}
	}
	// Per-node data at layer l is union size; network-wide volume at the
	// next communication layer is that total. It must shrink.
	for l := 1; l < len(totals); l++ {
		if totals[l] > totals[l-1] {
			t.Fatalf("layer unions grew: %v", totals)
		}
	}
}
