package core

import (
	"errors"
	"math/rand"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// perturb returns a new workload generation where roughly half the
// machines gain a few indices (in and out both, keeping each machine's
// out ⊇ in so global coverage is preserved) and the rest keep their
// sets unchanged — the slowly-evolving-sets regime Reconfigure targets.
func perturb(rng *rand.Rand, ws []workload, space, width int) []workload {
	next := make([]workload, len(ws))
	for r, w := range ws {
		if rng.Intn(2) == 0 {
			next[r] = w
			continue
		}
		extra := make([]int32, 1+rng.Intn(4))
		for i := range extra {
			extra[i] = int32(rng.Intn(space))
		}
		inIdx := append(w.in.Indices(), extra...)
		outIdx := append(w.out.Indices(), extra...)
		in := sparse.MustNewSet(inIdx)
		out := sparse.MustNewSet(outIdx)
		vals := make([]float32, len(out)*width)
		for i := range vals {
			vals[i] = float32(rng.Intn(100)) / 4
		}
		next[r] = workload{in: in, out: out, vals: vals}
	}
	return next
}

// freshDigests configures a brand-new cluster with ws and returns every
// rank's Config digest: the ground truth an incremental Reconfigure
// must converge to bit-for-bit.
func freshDigests(t *testing.T, degrees []int, ws []workload) []uint64 {
	t.Helper()
	bf := topo.MustNew(degrees)
	n := memnet.New(bf.M())
	defer n.Close()
	digests := make([]uint64, bf.M())
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		cfg, err := m.Configure(ws[ep.Rank()].in, ws[ep.Rank()].out)
		if err != nil {
			return err
		}
		digests[ep.Rank()] = cfg.Digest()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return digests
}

func TestReconfigureMatchesFreshConfigure(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, degrees := range [][]int{{4, 2}, {2, 2, 2}, {8}} {
		bf := topo.MustNew(degrees)
		// Three generations: the starting sets, a small perturbation, and
		// an unrelated redraw (worst case for the incremental pass).
		gens := [][]workload{randWorkloads(rng, bf.M(), 400, 50, 1, true)}
		gens = append(gens, perturb(rng, gens[0], 400, 1))
		gens = append(gens, randWorkloads(rng, bf.M(), 400, 50, 1, true))
		want := make([][]uint64, len(gens))
		for gi, ws := range gens {
			want[gi] = freshDigests(t, degrees, ws)
		}
		wantRes := make([][][]float32, len(gens))
		for gi, ws := range gens {
			wantRes[gi] = refReduce(ws, sparse.Sum, 1)
		}

		n := memnet.New(bf.M())
		err := memnet.Run(n, func(ep comm.Endpoint) error {
			r := ep.Rank()
			m, err := NewMachine(ep, bf, Options{})
			if err != nil {
				return err
			}
			cfg, err := m.Configure(gens[0][r].in, gens[0][r].out)
			if err != nil {
				return err
			}
			// First Reconfigure ships full pieces (no stored state yet) and
			// must leave the routing state exactly where Configure put it.
			for gi, ws := range gens {
				if err := cfg.Reconfigure(ws[r].in, ws[r].out); err != nil {
					return err
				}
				if got := cfg.Digest(); got != want[gi][r] {
					t.Errorf("degrees %v rank %d gen %d: digest %#x, fresh configure %#x",
						degrees, r, gi, got, want[gi][r])
				}
				res, err := cfg.Reduce(ws[r].vals)
				if err != nil {
					return err
				}
				if !almostEqual(res, wantRes[gi][r], 1e-4) {
					t.Errorf("degrees %v rank %d gen %d: reduce mismatch after Reconfigure", degrees, r, gi)
				}
			}
			return nil
		})
		n.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReconfigureWarmUnchangedKeepsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	bf := topo.MustNew([]int{4, 2})
	ws := randWorkloads(rng, bf.M(), 300, 40, 1, true)
	wantRes := refReduce(ws, sparse.Sum, 1)
	n := memnet.New(bf.M())
	defer n.Close()
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		r := ep.Rank()
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		cfg, err := m.Configure(ws[r].in, ws[r].out)
		if err != nil {
			return err
		}
		if _, err := cfg.Reduce(ws[r].vals); err != nil {
			return err
		}
		// First pass over unchanged sets: populates the stored pieces, so
		// it rebuilds every layer and must invalidate the arena.
		if err := cfg.Reconfigure(ws[r].in, ws[r].out); err != nil {
			return err
		}
		if cfg.scratch.ready != [2]bool{} {
			t.Errorf("rank %d: first Reconfigure kept the reduction arena", r)
		}
		if _, err := cfg.Reduce(ws[r].vals); err != nil {
			return err
		}
		before := cfg.Digest()
		// Warm pass: everything unchanged, so the arena must survive and
		// the state must not move.
		if err := cfg.Reconfigure(ws[r].in, ws[r].out); err != nil {
			return err
		}
		if cfg.scratch.ready == [2]bool{} {
			t.Errorf("rank %d: warm unchanged Reconfigure dropped the reduction arena", r)
		}
		if got := cfg.Digest(); got != before {
			t.Errorf("rank %d: warm unchanged Reconfigure moved the digest", r)
		}
		res, err := cfg.Reduce(ws[r].vals)
		if err != nil {
			return err
		}
		if !almostEqual(res, wantRes[r], 1e-4) {
			t.Errorf("rank %d: reduce mismatch after warm Reconfigure", r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReconfigureErrorPoisons drives a genuine mid-collective failure —
// a Strict coverage violation surfacing in the bottom turnaround, after
// layer state has already been rewritten — and asserts the Config
// refuses all further use, while a pre-exchange validation failure (see
// TestReconfigureRejectsUnsortedSets) leaves it usable.
func TestReconfigureErrorPoisons(t *testing.T) {
	bf := topo.MustNew([]int{1})
	n := memnet.New(1)
	defer n.Close()
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{Strict: true})
		if err != nil {
			return err
		}
		s := sparse.MustNewSet([]int32{1, 2, 3})
		cfg, err := m.Configure(s, s)
		if err != nil {
			return err
		}
		uncovered := sparse.MustNewSet([]int32{1, 2, 3, 4})
		if err := cfg.Reconfigure(uncovered, s); err == nil {
			t.Fatal("strict Reconfigure accepted an uncovered in-set")
		}
		if !cfg.Poisoned() {
			t.Error("Poisoned() false after a mid-collective Reconfigure failure")
		}
		if err := cfg.Reconfigure(s, s); !errors.Is(err, ErrPoisoned) {
			t.Errorf("Reconfigure on a poisoned Config: got %v, want ErrPoisoned", err)
		}
		_, err = cfg.Reduce(make([]float32, len(s)))
		if !errors.Is(err, ErrPoisoned) {
			t.Errorf("Reduce on a poisoned Config: got %v, want ErrPoisoned", err)
		}
		var pe *PoisonedError
		if !errors.As(err, &pe) || pe.Rank != 0 {
			t.Errorf("poisoned error not structured: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureRejectsUnsortedSets(t *testing.T) {
	bf := topo.MustNew([]int{1})
	n := memnet.New(1)
	defer n.Close()
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		s := sparse.MustNewSet([]int32{1, 2, 3})
		cfg, err := m.Configure(s, s)
		if err != nil {
			return err
		}
		bad := sparse.Set{s[2], s[0], s[1]}
		if err := cfg.Reconfigure(bad, s); err == nil {
			t.Error("Reconfigure accepted an unsorted in-set")
		}
		if err := cfg.Reconfigure(s, s); err != nil {
			t.Errorf("single-rank Reconfigure: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
