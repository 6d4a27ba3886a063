package kylix_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"kylix"
	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/leakcheck"
)

// TestWarmTCPMatchesMemory is the race lane's TCP workload
// (scripts/check.sh stage_race): warm Reduce rounds whose value buffers
// are refilled as soon as the previous round returns, a Reconfigure that
// moves nothing, and a quantized tenant stream, all over real sockets —
// the arena → transport hand-off the race detector must see as an
// ordinary copy, and the hand-back of every folded or landed piece to
// the receive pool, poisoned on release, as the arena is at every flip,
// so that a piece read afterwards or a value never written shows — with
// every round's digest equal to the in-memory run's.
func TestWarmTCPMatchesMemory(t *testing.T) {
	defer leakcheck.Check(t)()
	comm.PoisonReleased(true)
	defer comm.PoisonReleased(false)
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	const (
		m      = 8
		rounds = 60
		space  = 4096
		nnz    = 512
	)
	sets := make([][]int32, m)
	for r := range sets {
		for _, idx := range rand.New(rand.NewSource(int64(r) + 17)).Perm(space)[:nnz] {
			sets[r] = append(sets[r], int32(idx))
		}
	}
	// pass is one rank's work; it returns the digest of every result.
	pass := func(node *kylix.Node, reconfigure bool) ([]uint64, error) {
		set := sets[node.Rank()]
		bufs := [2][]float32{make([]float32, len(set)), make([]float32, len(set))}
		red, err := node.Configure(set, set)
		if err != nil {
			return nil, err
		}
		var digests []uint64
		for round := 0; round < rounds; round++ {
			vals := bufs[round%2]
			for i := range vals {
				vals[i] = float32(node.Rank()+1)*0.5 + float32((i+round)%11)*0.25
			}
			if reconfigure && round == rounds/2 {
				if err := red.Reconfigure(set, set); err != nil {
					return nil, err
				}
			}
			res, err := red.Reduce(vals)
			if err != nil {
				return nil, err
			}
			digests = append(digests, kylix.ValuesDigest(res))
		}
		return digests, nil
	}
	run := func(transport kylix.Transport) [][]uint64 {
		c, err := kylix.NewCluster(m, kylix.WithDegrees(4, 2), kylix.WithTransport(transport),
			kylix.WithRecvTimeout(60*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		out := make([][]uint64, m)
		var mu sync.Mutex
		collect := func(reconfigure bool) func(*kylix.Node) error {
			return func(node *kylix.Node) error {
				d, err := pass(node, reconfigure)
				mu.Lock()
				out[node.Rank()] = append(out[node.Rank()], d...)
				mu.Unlock()
				return err
			}
		}
		if err := c.Run(collect(true)); err != nil {
			t.Fatal(err)
		}
		s, err := c.OpenStream(kylix.WithQuantization(kylix.QuantINT8))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(collect(false)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := run(kylix.TransportMemory), run(kylix.TransportTCP)
	for r := range want {
		if len(got[r]) != 2*rounds {
			t.Fatalf("rank %d: %d results over TCP, want %d", r, len(got[r]), 2*rounds)
		}
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("rank %d result %d: TCP digest %x, memory digest %x", r, i, got[r][i], want[r][i])
			}
		}
	}
}
