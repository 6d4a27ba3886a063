package memnet

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// TestSlowRankBoundsBacklog: a mailbox takes every message, yet what
// waits in one is bounded by the butterfly. No rank finishes pass N
// before every rank has begun it, so a rank that has just finished pass
// N holds at most the pieces of passes N and N+1 — 4 × Σ degrees reduce
// and gather messages — however far one slow rank lags. One rank does
// extra kernel work before each of 200 warm passes.
func TestSlowRankBoundsBacklog(t *testing.T) {
	bf := topo.MustNew([]int{4, 2})
	bound := 0
	for _, d := range bf.Degrees() {
		bound += 4 * d
	}
	const passes, slow = 200, 3
	n := New(bf.M())
	defer n.Close()
	var most atomic.Int64
	err := Run(n, func(ep comm.Endpoint) error {
		r := ep.Rank()
		rng := rand.New(rand.NewSource(int64(57 + r)))
		idx := make([]int32, 30)
		for i := range idx {
			idx[i] = int32(rng.Intn(400))
		}
		set := sparse.MustNewSet(idx)
		vals := make([]float32, len(set))
		m, err := core.NewMachine(ep, bf, core.Options{Width: 1})
		if err != nil {
			return err
		}
		cfg, err := m.Configure(set, set)
		if err != nil {
			return err
		}
		busy := make([]float32, 1<<16)
		for pass := 0; pass < passes; pass++ {
			if r == slow {
				for k := 0; k < 16; k++ {
					sparse.Fill(busy, float32(k))
				}
			}
			if _, err := cfg.Reduce(vals); err != nil {
				return err
			}
			p := n.boxes[r].Pending()
			if p > bound {
				return fmt.Errorf("pass %d: %d messages wait for rank %d, want at most %d", pass, p, r, bound)
			}
			for seen := most.Load(); int64(p) > seen && !most.CompareAndSwap(seen, int64(p)); seen = most.Load() {
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("at most %d messages waited in a mailbox after a pass (bound %d)", most.Load(), bound)
}
