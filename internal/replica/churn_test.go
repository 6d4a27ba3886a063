package replica

import (
	"math/rand"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// TestChurnSoak runs many allreduce rounds on a replicated cluster while
// machines die at random between rounds — killing only machines whose
// replica partner is still alive, the regime the §V analysis promises to
// survive. Every round's results must stay exactly correct.
func TestChurnSoak(t *testing.T) {
	const (
		logical = 8
		s       = 2
		phys    = logical * s
		rounds  = 6
	)
	bf := topo.MustNew([]int{4, 2})
	rng := rand.New(rand.NewSource(2024))

	// Static workload: logical rank q contributes q+1 to feature 0 and
	// to a private feature.
	wantShared := float32(0)
	for q := 0; q < logical; q++ {
		wantShared += float32(q + 1)
	}

	net := memnet.New(phys, memnet.WithRecvTimeout(10*time.Second))
	defer net.Close()
	dead := map[int]bool{}

	// Per-physical-machine persistent protocol state across rounds: the
	// round counters must advance in lockstep, so machines are created
	// once and reused.
	machines := make([]*core.Machine, phys)
	for p := 0; p < phys; p++ {
		ep, err := Wrap(net.Endpoint(p), nil, s)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewMachine(ep, bf, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		machines[p] = m
	}

	for round := 0; round < rounds; round++ {
		// Kill one random machine whose partner is alive (except round 0).
		if round > 0 {
			for attempts := 0; attempts < 50; attempts++ {
				victim := rng.Intn(phys)
				partner := (victim + logical) % phys
				if !dead[victim] && !dead[partner] {
					dead[victim] = true
					net.Kill(victim)
					break
				}
			}
		}
		results := make([][]float32, phys)
		var ranks []int
		for p := 0; p < phys; p++ {
			if !dead[p] {
				ranks = append(ranks, p)
			}
		}
		err := memnet.Run(net, func(pep comm.Endpoint) error {
			p := pep.Rank()
			m := machines[p]
			q := p % logical
			in := sparse.MustNewSet([]int32{0})
			out := sparse.MustNewSet([]int32{0, int32(1000 + q)})
			cfg, err := m.Configure(in, out)
			if err != nil {
				return err
			}
			vals := make([]float32, 2)
			pos, _ := out.Position(sparse.MakeKey(0))
			vals[pos] = float32(q + 1)
			res, err := cfg.Reduce(vals)
			if err != nil {
				return err
			}
			results[p] = res
			return nil
		}, ranks...)
		if err != nil {
			t.Fatalf("round %d (dead=%d): %v", round, len(dead), err)
		}
		for p, res := range results {
			if res == nil {
				continue
			}
			if res[0] != wantShared {
				t.Fatalf("round %d phys %d: shared sum %f, want %f", round, p, res[0], wantShared)
			}
		}
	}
	if len(dead) < rounds-1 {
		t.Fatalf("churn only killed %d machines", len(dead))
	}
}
