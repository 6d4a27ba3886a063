package kylix_test

import (
	"fmt"
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
// Two regimes per transport and seed:
//   - unreplicated: per-link Delay scrambles cross-sender arrival order
//     (the order RecvGroup observes) plus Duplicate; Reorder must stay
//     off because a parked message with no successor on its link would
//     deadlock an unreplicated cluster (the soak's §V caveat).
//   - replicated: adds true per-link Reorder, confined to the upper
//     replica half so every receiver still gets a clean copy.

const permRounds = 5

type permRegime struct {
	name    string
	phys    int
	logical int
	opts    []kylix.Option
	chaos   kylix.FaultPlan
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
	}
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
		// Two features shared by everyone plus one private feature that a
		// neighbour gathers: collisions make the float fold order matter,
		// which is what bit-exactness is a property of.
		out := []int32{0, 1, int32(100 + q)}
		in := []int32{0, 1, int32(100 + (q+1)%rg.logical)}
		red, err := node.Configure(in, out)
		if err != nil {
			return err
		}
		var mine [][]float32
		for r := 0; r < permRounds; r++ {
			vals := []float32{
				float32(q+1) * 0.1 * float32(r+1), 1.0 / float32(q+2+r),
				1.0 / float32(q*3+r+1), float32(q*100+r) * 0.01,
				float32(q) - 0.5*float32(r), float32(r+1) * 0.3,
			}
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
						if !bitsEqual(chaos[p][r], clean[p][r]) {
							t.Fatalf("rank %d round %d: permuted delivery gave %v, in-order gave %v",
								p, r, chaos[p][r], clean[p][r])
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

// Worker-count invariance: sharding the combine/gather folds across the
// intra-node pool must not move a single bit — shards partition rows,
// never the per-row fold order. The shared index block is sized so the
// layer accumulator and gather kernels actually cross the sharding
// threshold (the combine_shards counter proves they did), and the chaos
// schedule permutes arrival order underneath, so the property is checked
// where it is sharpest: sharded folds over arrival-order-staged pieces,
// compared bitwise against the single-threaded serial fold.

// wideBlock is sized so per-kernel volumes clear par's sharding
// threshold after the butterfly splits them: a layer-1 piece is
// wideBlock/4 rows and the bottom turnaround wideBlock/8, and at width
// 2 both stay >= 2 x 8192 elements — the smallest kernel that shards.
const (
	wideRounds = 2
	wideBlock  = 1 << 16
)

func runPermutedWide(t *testing.T, transport kylix.Transport, workers int, plan kylix.FaultPlan) ([][][]float32, int64, *kylix.FaultInjector) {
	t.Helper()
	const phys = 8
	cluster, err := kylix.NewCluster(phys,
		kylix.WithTransport(transport),
		kylix.WithDegrees(4, 2),
		kylix.WithWidth(2),
		kylix.WithRecvTimeout(30*time.Second),
		kylix.WithCombineWorkers(workers),
		kylix.WithObservability(),
		kylix.WithFaults(plan),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	results := make([][][]float32, phys)
	var mu sync.Mutex
	err = cluster.Run(func(node *kylix.Node) error {
		q := node.Rank()
		// Every node contributes the whole block: 8-way collisions on
		// every index, so each accumulator row folds a full member-order
		// chain and any fold-order slip shows up bitwise.
		idx := make([]int32, wideBlock)
		for i := range idx {
			idx[i] = int32(i)
		}
		red, err := node.Configure(idx, idx)
		if err != nil {
			return err
		}
		vals := make([]float32, wideBlock*2)
		var mine [][]float32
		for r := 0; r < wideRounds; r++ {
			for i := 0; i < wideBlock; i++ {
				vals[2*i] = float32(q+1) * 0.001 * float32(i%97+r+1)
				vals[2*i+1] = 1.0 / float32(q*31+i%113+r+2)
			}
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
	shards := cluster.Metrics().Counter("combine_shards").Value()
	return results, shards, cluster.Faults()
}

func testWorkerShardInvariance(t *testing.T, transport kylix.Transport) {
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	const seed = 7
	chaosPlan := kylix.FaultPlan{
		Seed:      seed,
		Delay:     0.50,
		MaxDelay:  2 * time.Millisecond,
		Duplicate: 0.25,
	}
	serial, serialShards, _ := runPermutedWide(t, transport, 1, kylix.FaultPlan{Seed: seed})
	if serialShards != 0 {
		t.Fatalf("combine_shards = %d on a single-worker machine, want 0", serialShards)
	}
	for _, w := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers%d", w), func(t *testing.T) {
			clean, shards, _ := runPermutedWide(t, transport, w, kylix.FaultPlan{Seed: seed})
			if shards == 0 {
				t.Fatalf("pool never sharded at %d workers: workload below threshold?", w)
			}
			chaos, _, fab := runPermutedWide(t, transport, w, chaosPlan)
			if st := fab.Stats(); st.Delayed == 0 || st.Duplicated == 0 {
				t.Fatalf("permutation schedule never engaged: %+v", st)
			}
			for p := range serial {
				for r := 0; r < wideRounds; r++ {
					if !bitsEqual(clean[p][r], serial[p][r]) {
						t.Fatalf("rank %d round %d: %d-worker fold differs from serial", p, r, w)
					}
					if !bitsEqual(chaos[p][r], serial[p][r]) {
						t.Fatalf("rank %d round %d: %d-worker fold under permuted delivery differs from serial", p, r, w)
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
