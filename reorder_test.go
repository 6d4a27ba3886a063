package kylix_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"kylix"
	"kylix/internal/core"
)

// Delivery-order permutation property: the reduction hot path takes
// pieces in arrival order but folds them in canonical member order, so
// an adversarially delayed/duplicated/reordered delivery schedule must
// produce results bit-identical to an undisturbed run. Unlike the chaos
// soak (which reconfigures every round), this drives the
// configure-once/reduce-many path, so the same scratch-arena
// generations are recycled across rounds while deliveries arrive
// permuted.
//
// Three regimes per transport and seed:
//   - unreplicated: per-link Delay scrambles cross-sender arrival order
//     (the order RecvGroup observes) plus Duplicate; Reorder must stay
//     off because a parked message with no successor on its link would
//     deadlock an unreplicated cluster (the soak's §V caveat).
//   - replicated: adds true per-link Reorder, confined to the upper
//     replica half so every receiver still gets a clean copy.
//   - wide: the unreplicated schedule over a 2^16-key block that every
//     node contributes whole, so every key collides 8 ways and each
//     accumulator row folds a full member-order chain: a fold-order slip
//     anywhere in a large kernel shows up bitwise.

const (
	permRounds = 5
	wideBlock  = 1 << 16
)

type permRegime struct {
	name    string
	phys    int
	logical int
	// block > 0 replaces the three-feature sets with the shared index
	// block [0, block).
	block int
	opts  []kylix.Option
	chaos kylix.FaultPlan
}

func permRegimes(seed int64) []permRegime {
	return []permRegime{
		{
			name: "delay", phys: 8, logical: 8,
			chaos: kylix.FaultPlan{
				Seed:      seed,
				Delay:     0.50,
				MaxDelay:  2 * time.Millisecond,
				Duplicate: 0.25,
			},
		},
		{
			name: "reorder", phys: 16, logical: 8,
			opts: []kylix.Option{kylix.WithReplication(2)},
			chaos: kylix.FaultPlan{
				Seed:      seed,
				Faulty:    []int{8, 9, 10, 11, 12, 13, 14, 15},
				Reorder:   0.40,
				Delay:     0.30,
				MaxDelay:  2 * time.Millisecond,
				Duplicate: 0.20,
			},
		},
		{
			name: "wide", phys: 8, logical: 8, block: wideBlock,
			chaos: kylix.FaultPlan{
				Seed:      seed,
				Delay:     0.50,
				MaxDelay:  2 * time.Millisecond,
				Duplicate: 0.25,
			},
		},
	}
}

// permInput is node q's sets and round-r values (width 2) in a regime.
func permInput(rg permRegime, q, r int) (in, out []int32, vals []float32) {
	if rg.block == 0 {
		// Two features shared by everyone plus one private feature that a
		// neighbour gathers: collisions make the float fold order matter,
		// which is what bit-exactness is a property of.
		in = []int32{0, 1, int32(100 + (q+1)%rg.logical)}
		out = []int32{0, 1, int32(100 + q)}
		return in, out, []float32{
			float32(q+1) * 0.1 * float32(r+1), 1.0 / float32(q+2+r),
			1.0 / float32(q*3+r+1), float32(q*100+r) * 0.01,
			float32(q) - 0.5*float32(r), float32(r+1) * 0.3,
		}
	}
	out = make([]int32, rg.block)
	vals = make([]float32, 2*rg.block)
	for i := range out {
		out[i] = int32(i)
		vals[2*i] = float32(q+1) * 0.001 * float32(i%97+r+1)
		vals[2*i+1] = 1.0 / float32(q*31+i%113+r+2)
	}
	return out, out, vals
}

// runPermuted runs permRounds reductions over one Reduction per node
// under the given fault plan and returns results[physRank][round].
func runPermuted(t *testing.T, transport kylix.Transport, rg permRegime, plan kylix.FaultPlan) ([][][]float32, *kylix.FaultInjector) {
	t.Helper()
	opts := append([]kylix.Option{
		kylix.WithTransport(transport),
		kylix.WithDegrees(4, 2),
		kylix.WithWidth(2),
		kylix.WithRecvTimeout(15 * time.Second),
		kylix.WithFaults(plan),
	}, rg.opts...)
	cluster, err := kylix.NewCluster(rg.phys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	results := make([][][]float32, rg.phys)
	var mu sync.Mutex
	err = cluster.Run(func(node *kylix.Node) error {
		q := node.Rank()
		in, out, _ := permInput(rg, q, 0)
		red, err := node.Configure(in, out)
		if err != nil {
			return err
		}
		var mine [][]float32
		for r := 0; r < permRounds; r++ {
			_, _, vals := permInput(rg, q, r)
			res, err := red.Reduce(vals)
			if err != nil {
				return fmt.Errorf("round %d: %w", r, err)
			}
			mine = append(mine, res)
		}
		mu.Lock()
		results[node.PhysicalRank()] = mine
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, cluster.Faults()
}

func testDeliveryPermutation(t *testing.T, transport kylix.Transport) {
	// Recycled arena memory is poisoned at every flip: a pass that read a
	// value it did not write in that pass would turn these digests to NaN.
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	for _, seed := range []int64{1, 7, 99} {
		for _, rg := range permRegimes(seed) {
			t.Run(fmt.Sprintf("%s/seed%d", rg.name, seed), func(t *testing.T) {
				clean, _ := runPermuted(t, transport, rg, kylix.FaultPlan{Seed: seed})
				chaos, fab := runPermuted(t, transport, rg, rg.chaos)
				st := fab.Stats()
				if st.Delayed == 0 || st.Duplicated == 0 {
					t.Fatalf("permutation schedule never engaged: %+v", st)
				}
				if rg.chaos.Reorder > 0 && st.Reordered == 0 {
					t.Fatalf("reorder schedule never engaged: %+v", st)
				}
				for p := 0; p < rg.phys; p++ {
					for r := 0; r < permRounds; r++ {
						got, want := chaos[p][r], clean[p][r]
						if len(got) != len(want) {
							t.Fatalf("rank %d round %d: permuted delivery gave %d values, in-order gave %d", p, r, len(got), len(want))
						}
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("rank %d round %d value %d: permuted delivery gave %v, in-order gave %v",
									p, r, i, got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}

func TestDeliveryPermutationMemory(t *testing.T) { testDeliveryPermutation(t, kylix.TransportMemory) }

func TestDeliveryPermutationTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP permutation property skipped in -short")
	}
	testDeliveryPermutation(t, kylix.TransportTCP)
}

// testWorkerShardInvariance runs the wide block with the machines spread
// over 1, 2 and 4 OS threads (GOMAXPROCS): every fold runs serially on
// its machine goroutine, so how many workers the scheduler gives the
// cluster, and how it interleaves the machines on them, must not move a
// bit, in order or under permuted delivery.
func testWorkerShardInvariance(t *testing.T, transport kylix.Transport) {
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	const seed = 7
	var wide permRegime
	for _, rg := range permRegimes(seed) {
		if rg.block > 0 {
			wide = rg
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial, _ := runPermuted(t, transport, wide, kylix.FaultPlan{Seed: seed})
	for _, w := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers%d", w), func(t *testing.T) {
			runtime.GOMAXPROCS(w)
			defer runtime.GOMAXPROCS(1)
			clean, _ := runPermuted(t, transport, wide, kylix.FaultPlan{Seed: seed})
			chaos, fab := runPermuted(t, transport, wide, wide.chaos)
			if st := fab.Stats(); st.Delayed == 0 || st.Duplicated == 0 {
				t.Fatalf("permutation schedule never engaged: %+v", st)
			}
			for p := range serial {
				for r := 0; r < permRounds; r++ {
					if !bitsEqual(clean[p][r], serial[p][r]) {
						t.Fatalf("rank %d round %d: %d-worker run differs from one worker", p, r, w)
					}
					if !bitsEqual(chaos[p][r], serial[p][r]) {
						t.Fatalf("rank %d round %d: %d-worker run under permuted delivery differs from one worker", p, r, w)
					}
				}
			}
		})
	}
}

func TestWorkerShardInvarianceMemory(t *testing.T) {
	testWorkerShardInvariance(t, kylix.TransportMemory)
}

func TestWorkerShardInvarianceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP worker invariance skipped in -short")
	}
	testWorkerShardInvariance(t, kylix.TransportTCP)
}
