package replica

import (
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/faultnet"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/tcpnet"
	"kylix/internal/topo"
)

// TestFullReplicationSingleLogical exercises the s=m corner: every
// physical machine plays logical rank 0, so the whole cluster is one
// replica group and the "allreduce" degenerates to racing m copies of a
// self-message.
func TestFullReplicationSingleLogical(t *testing.T) {
	const m = 4
	if got := LogicalRank(3, m, m); got != 0 {
		t.Fatalf("LogicalRank(3,%d,%d) = %d, want 0", m, m, got)
	}
	reps := Replicas(0, m, m)
	if len(reps) != m {
		t.Fatalf("Replicas = %v, want all %d ranks", reps, m)
	}
	for j, r := range reps {
		if r != j {
			t.Fatalf("Replicas = %v, want [0..%d)", reps, m)
		}
	}

	bf := topo.MustNew(topo.Direct(1))
	net := memnet.New(m, memnet.WithRecvTimeout(5*time.Second))
	defer net.Close()
	// Kill all but one machine: a single survivor in the single group
	// must still complete.
	net.Kill(1)
	net.Kill(3)
	results := make([][]float32, m)
	err := memnet.Run(net, func(pep comm.Endpoint) error {
		p := pep.Rank()
		ep, err := Wrap(pep, nil, m)
		if err != nil {
			return err
		}
		mach, err := core.NewMachine(ep, bf, core.Options{})
		if err != nil {
			return err
		}
		in := sparse.MustNewSet([]int32{7})
		out := sparse.MustNewSet([]int32{7})
		cfg, err := mach.Configure(in, out)
		if err != nil {
			return err
		}
		// Every replica of logical rank 0 contributes the same value —
		// replicas carry identical data by construction (§V).
		res, err := cfg.Reduce([]float32{5})
		if err != nil {
			return err
		}
		results[p] = res
		return nil
	}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2} {
		if results[p] == nil || results[p][0] != 5 {
			t.Fatalf("phys %d result = %v, want [5]", p, results[p])
		}
	}
}

// TestAllPrimariesDeadSurvivors runs an allreduce where every primary
// replica is dead from the start: only the non-primary halves survive,
// so every race must be won by a secondary and the winner-to-logical
// mapping is exercised off the primary diagonal everywhere.
func TestAllPrimariesDeadSurvivors(t *testing.T) {
	const (
		logical = 4
		s       = 2
		phys    = logical * s
	)
	bf := topo.MustNew([]int{2, 2})
	net := memnet.New(phys, memnet.WithRecvTimeout(5*time.Second))
	defer net.Close()
	for p := 0; p < logical; p++ {
		net.Kill(p) // all primaries
	}
	var survivors []int
	for p := logical; p < phys; p++ {
		survivors = append(survivors, p)
	}
	wantShared := float32(0)
	for q := 0; q < logical; q++ {
		wantShared += float32(q + 1)
	}
	results := make([][]float32, phys)
	err := memnet.Run(net, func(pep comm.Endpoint) error {
		p := pep.Rank()
		ep, err := Wrap(pep, nil, s)
		if err != nil {
			return err
		}
		mach, err := core.NewMachine(ep, bf, core.Options{})
		if err != nil {
			return err
		}
		q := LogicalRank(p, phys, s)
		in := sparse.MustNewSet([]int32{0})
		out := sparse.MustNewSet([]int32{0, int32(100 + q)})
		cfg, err := mach.Configure(in, out)
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
	}, survivors...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range survivors {
		if results[p] == nil || results[p][0] != wantShared {
			t.Fatalf("phys %d result = %v, want shared %f", p, results[p], wantShared)
		}
	}
}

// TestTCPChurnSoak mirrors the memnet churn soak over real loopback TCP
// sockets: machines die between rounds through the fault fabric (the
// only transport-agnostic kill path), reconnect backoff is capped low so
// writers spin fast, and every surviving machine's results must stay
// exactly correct every round.
func TestTCPChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP soak skipped in -short")
	}
	const (
		logical = 4
		s       = 2
		phys    = logical * s
		rounds  = 4
	)
	bf := topo.MustNew([]int{2, 2})
	nodes, err := tcpnet.LocalCluster(phys, tcpnet.Options{
		RecvTimeout:         10 * time.Second,
		MaxReconnectBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpnet.CloseAll(nodes)
	fab, err := faultnet.New(faultnet.Plan{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fab.InitSize(phys)
	defer fab.Close()

	machines := make([]*core.Machine, phys)
	for p := 0; p < phys; p++ {
		mach, err := core.NewMachine(mustWrap(t, fab.Wrap(nodes[p]), s), bf, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		machines[p] = mach
	}
	wantShared := float32(0)
	for q := 0; q < logical; q++ {
		wantShared += float32(q + 1)
	}
	// Kill one machine per round, never both halves of a group: the
	// victims 1, 6, 3 leave partners 5, 2, 7 covering their groups.
	victims := []int{-1, 1, 6, 3}
	dead := map[int]bool{}
	for round := 0; round < rounds; round++ {
		if victims[round] >= 0 {
			fab.Kill(victims[round])
			dead[victims[round]] = true
		}
		results := make([][]float32, phys)
		errc := make(chan error, phys)
		started := 0
		for p := 0; p < phys; p++ {
			if dead[p] {
				continue
			}
			started++
			go func(p int) {
				mach := machines[p]
				q := LogicalRank(p, phys, s)
				in := sparse.MustNewSet([]int32{0})
				out := sparse.MustNewSet([]int32{0, int32(100 + q)})
				cfg, err := mach.Configure(in, out)
				if err != nil {
					errc <- err
					return
				}
				vals := make([]float32, 2)
				pos, _ := out.Position(sparse.MakeKey(0))
				vals[pos] = float32(q + 1)
				res, err := cfg.Reduce(vals)
				if err != nil {
					errc <- err
					return
				}
				results[p] = res
				errc <- nil
			}(p)
		}
		for i := 0; i < started; i++ {
			if err := <-errc; err != nil {
				t.Fatalf("round %d (dead=%v): %v", round, dead, err)
			}
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
}

func mustWrap(t *testing.T, ep comm.Endpoint, s int) comm.Endpoint {
	t.Helper()
	wrapped, err := Wrap(ep, nil, s)
	if err != nil {
		t.Fatal(err)
	}
	return wrapped
}
