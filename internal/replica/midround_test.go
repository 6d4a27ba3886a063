package replica

import (
	"errors"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// TestKillMidScatterPartnerFinishes is the mid-round counterpart of the
// between-rounds churn soak: a replica is crash-stopped while every
// machine is inside the collective — after configuration, with its
// partner about to scatter — and the survivors' round must still
// complete with exactly correct results. This exercises memnet.Kill's
// mid-round guarantees: the victim's blocked receives unblock with
// ErrClosed instead of hanging, its in-flight sends vanish, and
// memnet.Run treats the dead rank's error as injected, not fatal.
func TestKillMidScatterPartnerFinishes(t *testing.T) {
	const (
		logical = 8
		s       = 2
		phys    = logical * s
		victim  = 12 // partner is 4; group {4, 12} keeps one survivor
	)
	bf := topo.MustNew([]int{4, 2})
	wantShared := float32(0)
	for q := 0; q < logical; q++ {
		wantShared += float32(q + 1)
	}

	net := memnet.New(phys, memnet.WithRecvTimeout(10*time.Second))
	defer net.Close()
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

	// configured fires once the victim finished Configure; the killer
	// lands the crash-stop right as the scatter-reduce begins.
	configured := make(chan struct{})
	killed := make(chan struct{})
	go func() {
		<-configured
		net.Kill(victim)
		close(killed)
	}()

	runRound := func(ranks []int, midRound bool) [][]float32 {
		t.Helper()
		results := make([][]float32, phys)
		err := memnet.Run(net, func(pep comm.Endpoint) error {
			p := pep.Rank()
			m := machines[p]
			q := p % logical
			in := sparse.MustNewSet([]int32{0})
			out := sparse.MustNewSet([]int32{0, int32(1000 + q)})
			cfg, err := m.Configure(in, out)
			if err != nil {
				if p == victim {
					return nil // crash-stop landed during configuration
				}
				return err
			}
			if midRound && p == victim {
				close(configured)
				<-killed // enter Reduce only after the crash-stop landed
			}
			vals := make([]float32, 2)
			pos, _ := out.Position(sparse.MakeKey(0))
			vals[pos] = float32(q + 1)
			res, err := cfg.Reduce(vals)
			if err != nil {
				if p == victim {
					if !errors.Is(err, comm.ErrClosed) && !errors.Is(err, comm.ErrTimeout) {
						t.Errorf("victim failed with %v, want ErrClosed/ErrTimeout", err)
					}
					return nil
				}
				return err
			}
			results[p] = res
			return nil
		}, ranks...)
		if err != nil {
			t.Fatalf("round failed: %v", err)
		}
		return results
	}

	check := func(results [][]float32, wantLive int) {
		t.Helper()
		live := 0
		for p, res := range results {
			if res == nil {
				continue
			}
			live++
			if res[0] != wantShared {
				t.Fatalf("phys %d: shared sum %f, want %f", p, res[0], wantShared)
			}
		}
		if live < wantLive {
			t.Fatalf("only %d machines finished, want >= %d", live, wantLive)
		}
	}

	all := make([]int, phys)
	for p := range all {
		all[p] = p
	}
	res := runRound(all, true)
	check(res, phys-1)
	if res[victim] != nil {
		t.Fatal("victim produced a result after its mid-scatter crash")
	}
	if !net.Dead(victim) {
		t.Fatal("victim not marked dead")
	}

	// The cluster must stay fully functional for later rounds without
	// the victim.
	var survivors []int
	for p := 0; p < phys; p++ {
		if p != victim {
			survivors = append(survivors, p)
		}
	}
	check(runRound(survivors, false), phys-1)
}
