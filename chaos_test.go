package kylix_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kylix"
	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/sparse"
)

// The chaos soak is the acceptance test for the fault fabric: an s=2
// replicated 16-machine cluster runs multi-round allreduces while a
// seeded schedule drops, duplicates, delays and reorders messages and
// crash-stops one replica mid-round, every round — and every surviving
// machine's results must be bit-identical to a fault-free run. Faults
// are confined to the upper replica half, the regime the paper's §V
// replication guarantees to survive (each group keeps its lower
// survivor).

const (
	soakPhys    = 16
	soakLogical = 8
	soakRounds  = 6
)

var soakVictims = []int{9, 11, 13, 15, 10} // killed mid-round in rounds 1..5

func soakOpts(transport kylix.Transport, plan kylix.FaultPlan) []kylix.Option {
	return []kylix.Option{
		kylix.WithTransport(transport),
		kylix.WithReplication(2),
		kylix.WithDegrees(4, 2),
		kylix.WithRecvTimeout(15 * time.Second),
		kylix.WithFaults(plan),
	}
}

// soakRound is one allreduce: logical rank q contributes round- and
// rank-dependent non-trivial floats to two shared features and one
// private feature, and gathers the shared ones plus a neighbour's
// private feature. Bit-exactness of the results is meaningful because
// float addition order matters and the protocol fixes it.
func soakRound(node *kylix.Node, round int) ([]float32, error) {
	q := node.Rank()
	neighbour := int32(100 + (q+1)%soakLogical)
	out := []int32{0, 1, int32(100 + q)}
	in := []int32{0, 1, neighbour}
	red, err := node.Configure(in, out)
	if err != nil {
		return nil, err
	}
	vals := []float32{
		float32(q+1) * 0.1 * float32(round+1),
		1.0 / float32(q+2),
		float32(q*100 + round),
	}
	return red.Reduce(vals)
}

// runSoak runs `rounds` rounds on a fresh cluster, returning per-round
// per-physical-rank results (nil entries for crash-stopped machines)
// and the cumulative per-rank fabric send counts after each round (the
// logical clock kill schedules are written against).
func runSoak(t *testing.T, transport kylix.Transport, plan kylix.FaultPlan, rounds int) (results [][][]float32, snaps [][]int64, cluster *kylix.Cluster) {
	t.Helper()
	cluster, err := kylix.NewCluster(soakPhys, soakOpts(transport, plan)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	fab := cluster.Faults()
	for r := 0; r < rounds; r++ {
		res := make([][]float32, soakPhys)
		var mu sync.Mutex
		err := cluster.Run(func(node *kylix.Node) error {
			v, err := soakRound(node, r)
			if err != nil {
				return err
			}
			mu.Lock()
			res[node.PhysicalRank()] = v
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("%v round %d: %v", transport, r, err)
		}
		snap := make([]int64, soakPhys)
		for p := 0; p < soakPhys; p++ {
			snap[p] = fab.Sends(p)
		}
		results = append(results, res)
		snaps = append(snaps, snap)
	}
	return results, snaps, cluster
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// testChaosSoak returns the fault-free results the chaos pass was
// compared with.
func testChaosSoak(t *testing.T, transport kylix.Transport) [][][]float32 {
	// Recycled arena memory is poisoned at every flip: a pass that read a
	// value it did not write in that pass would turn these digests to NaN.
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	// Pass 1 — fault-free probe: establishes the ground-truth results
	// and measures each rank's per-round send counts, which are
	// identical in the chaos pass (counting precedes fault decisions).
	baseline, snaps, _ := runSoak(t, transport, kylix.FaultPlan{Seed: 42}, soakRounds)
	for r := 0; r < soakRounds; r++ {
		for p := 0; p < soakPhys; p++ {
			if baseline[r][p] == nil {
				t.Fatalf("baseline round %d rank %d produced no result", r, p)
			}
			if tw := baseline[r][p%soakLogical]; !bitsEqual(baseline[r][p], tw) {
				t.Fatalf("baseline round %d: replicas of logical %d disagree", r, p%soakLogical)
			}
		}
	}

	// Schedule each kill halfway through its round's send window so the
	// victim dies mid-scatter, not between rounds.
	kills := make([]kylix.FaultKill, len(soakVictims))
	for i, v := range soakVictims {
		r := i + 1
		prev, cur := snaps[r-1][v], snaps[r][v]
		if cur-prev < 2 {
			t.Fatalf("victim %d sends only %d frames in round %d; cannot land a mid-round kill", v, cur-prev, r)
		}
		kills[i] = kylix.FaultKill{Rank: v, AfterSends: int(prev + (cur-prev)/2)}
	}
	plan := kylix.FaultPlan{
		Seed:      42,
		Faulty:    []int{8, 9, 10, 11, 12, 13, 14, 15}, // upper replicas only: §V's survivable regime
		Drop:      0.10,
		Duplicate: 0.15,
		Delay:     0.25,
		MaxDelay:  2 * time.Millisecond,
		Reorder:   0.08,
		Kills:     kills,
	}

	// Pass 2 — chaos: same workload under the full fault schedule.
	chaos, _, cluster := runSoak(t, transport, plan, soakRounds)
	fab := cluster.Faults()

	deadAsOf := map[int]int{} // victim -> round it dies in
	for i, v := range soakVictims {
		deadAsOf[v] = i + 1
	}
	for r := 0; r < soakRounds; r++ {
		for p := 0; p < soakPhys; p++ {
			dieRound, dies := deadAsOf[p]
			if dies && r >= dieRound {
				if chaos[r][p] != nil && r > dieRound {
					t.Fatalf("round %d: rank %d produced a result after dying in round %d", r, p, dieRound)
				}
				continue
			}
			if chaos[r][p] == nil {
				t.Fatalf("round %d: surviving rank %d produced no result", r, p)
			}
			if !bitsEqual(chaos[r][p], baseline[r][p]) {
				t.Fatalf("round %d rank %d: chaos result %v differs from fault-free %v",
					r, p, chaos[r][p], baseline[r][p])
			}
		}
	}

	// The schedule must actually have fired: every victim dead at its
	// exact send threshold, and every message-level fault class engaged.
	for i, v := range soakVictims {
		if !fab.Killed(v) {
			t.Fatalf("victim %d was never killed", v)
		}
		if got := fab.Sends(v); got != int64(kills[i].AfterSends)+1 {
			t.Fatalf("victim %d attempted %d sends, want crash on attempt %d", v, got, kills[i].AfterSends+1)
		}
	}
	st := fab.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.Delayed == 0 || st.Reordered == 0 {
		t.Fatalf("chaos schedule never engaged: %+v", st)
	}
	t.Logf("%v soak: %d rounds, %d kills, stats %+v", transport, soakRounds, len(soakVictims), st)
	return baseline
}

// reconfigChaosPlan is the fault schedule of the evolving-set soaks.
func reconfigChaosPlan() kylix.FaultPlan {
	return kylix.FaultPlan{
		Seed:      53,
		Faulty:    []int{8, 9, 10, 11, 12, 13, 14, 15}, // upper replicas: §V's survivable regime
		Drop:      0.10,
		Duplicate: 0.15,
		Delay:     0.25,
		MaxDelay:  2 * time.Millisecond,
		Reorder:   0.08,
	}
}

// reconfigRound is one round of the evolving-sets soak: rank q's sets
// gain a fresh shared feature every other round (so the incremental
// pass sees changed and unchanged generations alike), and the values
// are round- and rank-dependent non-trivial floats.
func reconfigRound(q, round int) (in, out []int32, vals []float32) {
	neighbour := int32(100 + (q+1)%soakLogical)
	shared := int32(200 + round/2)
	out = []int32{0, 1, int32(100 + q), shared}
	in = []int32{0, 1, neighbour, shared}
	vals = []float32{
		float32(q+1) * 0.1 * float32(round+1),
		1.0 / float32(q+2),
		float32(q*100 + round),
		float32(q+3) / float32(round+2),
	}
	return in, out, vals
}

// requireDeltas fails the test unless some configuration piece crossed
// with a direction spelled as a delta, so the soaks that drift sets
// also put the delta path through their faults.
func requireDeltas(t *testing.T, cluster *kylix.Cluster) {
	t.Helper()
	if n := cluster.Metrics().Counter("config_delta_pieces").Value(); n == 0 {
		t.Error("no configuration piece crossed as a delta")
	}
}

// runReconfigSoak drives soakRounds evolving-set rounds over one
// long-lived Reduction per node — Configure once, then Reconfigure
// every round — and returns each physical rank's per-round config
// digest and reduced values.
func runReconfigSoak(t *testing.T, transport kylix.Transport, plan kylix.FaultPlan) (digests [][]uint64, results [][][]float32) {
	t.Helper()
	// Retired routing state is poisoned the moment it is retired, and the
	// arena at every flip: a read the quiescence argument missed computes
	// garbage, not a plausible stale route.
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	cluster, err := kylix.NewCluster(soakPhys, append(soakOpts(transport, plan), kylix.WithObservability())...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	defer requireDeltas(t, cluster)
	digests = make([][]uint64, soakRounds)
	results = make([][][]float32, soakRounds)
	for r := range digests {
		digests[r] = make([]uint64, soakPhys)
		results[r] = make([][]float32, soakPhys)
	}
	var mu sync.Mutex
	err = cluster.Run(func(node *kylix.Node) error {
		p := node.PhysicalRank()
		q := node.Rank()
		var red *kylix.Reduction
		for r := 0; r < soakRounds; r++ {
			in, out, vals := reconfigRound(q, r)
			var err error
			if red == nil {
				red, err = node.Configure(in, out)
			} else {
				err = red.Reconfigure(in, out)
			}
			if err != nil {
				return err
			}
			res, err := red.Reduce(vals)
			if err != nil {
				return err
			}
			mu.Lock()
			digests[r][p] = red.ConfigDigest()
			results[r][p] = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v reconfigure soak: %v", transport, err)
	}
	return digests, results
}

// testReconfigureChaosSoak proves incremental reconfiguration is
// fault-transparent: a cluster whose sets evolve every round under
// message drops, duplicates, delays and reordering must end every round
// with routing state (config digest) and reduced values bit-identical
// to a fault-free run of the same schedule.
func testReconfigureChaosSoak(t *testing.T, transport kylix.Transport) {
	baseline, baseRes := runReconfigSoak(t, transport, kylix.FaultPlan{Seed: 53})
	chaos, chaosRes := runReconfigSoak(t, transport, reconfigChaosPlan())
	for r := 0; r < soakRounds; r++ {
		for p := 0; p < soakPhys; p++ {
			if chaos[r][p] != baseline[r][p] {
				t.Errorf("round %d rank %d: chaos config digest %#x differs from fault-free %#x",
					r, p, chaos[r][p], baseline[r][p])
			}
			if !bitsEqual(chaosRes[r][p], baseRes[r][p]) {
				t.Errorf("round %d rank %d: chaos reduce %v differs from fault-free %v",
					r, p, chaosRes[r][p], baseRes[r][p])
			}
		}
		// Replicas of one logical rank must also agree with each other.
		for p := soakLogical; p < soakPhys; p++ {
			if chaos[r][p] != chaos[r][p-soakLogical] {
				t.Errorf("round %d: replica digests of logical %d disagree", r, p-soakLogical)
			}
		}
	}
}

func TestReconfigureChaosSoakMemory(t *testing.T) { testReconfigureChaosSoak(t, kylix.TransportMemory) }

func TestReconfigureChaosSoakTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP soak skipped in -short")
	}
	testReconfigureChaosSoak(t, kylix.TransportTCP)
}

const minibatchRounds = 8

// minibatchRound is logical rank q's batch in one round of the minibatch
// soak: 48 indices from a range the ranks share, the batch with every
// tenth index replaced by one it does not hold, and a value per index.
// Even rounds hand the batch over in key order, as a set that has been
// through the protocol is, so both kinds of order map are exercised.
func minibatchRound(q, round int) (idx, moved []int32, vals []float32) {
	rng := rand.New(rand.NewSource(int64(1000*round + q)))
	have := map[int32]bool{}
	draw := func() int32 {
		for {
			if i := rng.Int31n(400); !have[i] {
				have[i] = true
				return i
			}
		}
	}
	for len(idx) < 48 {
		idx = append(idx, draw())
	}
	if round%2 == 0 {
		idx = sparse.MustNewSet(idx).Indices()
	}
	moved = append([]int32(nil), idx...)
	for j := 0; j < len(moved); j += 10 {
		moved[j] = draw()
	}
	for range idx {
		vals = append(vals, float32(q+1)/float32(round+3)+rng.Float32())
	}
	return idx, moved, vals
}

// runMinibatchSoak runs the minibatch shape — ConfigureReduce, a
// Reconfigure to the moved batch, a Reduce — for minibatchRounds rounds
// in one Run, with retired routing state and the arena poisoned, and
// returns each physical rank's per-round digests (after each
// configuration pass) and results (of each arena pass).
func runMinibatchSoak(t *testing.T, transport kylix.Transport, plan kylix.FaultPlan) (digests [][][2]uint64, results [][][2][]float32) {
	t.Helper()
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	cluster, err := kylix.NewCluster(soakPhys, append(soakOpts(transport, plan), kylix.WithObservability())...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	defer requireDeltas(t, cluster)
	digests = make([][][2]uint64, minibatchRounds)
	results = make([][][2][]float32, minibatchRounds)
	for r := range digests {
		digests[r] = make([][2]uint64, soakPhys)
		results[r] = make([][2][]float32, soakPhys)
	}
	err = cluster.Run(func(node *kylix.Node) error {
		p := node.PhysicalRank()
		for r := 0; r < minibatchRounds; r++ {
			idx, moved, vals := minibatchRound(node.Rank(), r)
			red, res1, err := node.ConfigureReduce(idx, idx, vals)
			if err != nil {
				return err
			}
			d1 := red.ConfigDigest()
			if err := red.Reconfigure(moved, moved); err != nil {
				return err
			}
			res2, err := red.Reduce(vals)
			if err != nil {
				return err
			}
			digests[r][p] = [2]uint64{d1, red.ConfigDigest()}
			results[r][p] = [2][]float32{res1, res2}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v minibatch soak: %v", transport, err)
	}
	return digests, results
}

// testMinibatchChaosSoak proves the recycling of routing state is
// fault-transparent: sets that drift every step, rebuilt twice a step
// into blocks earlier passes retired, must give digests and results
// bit-identical to a fault-free run under the evolving-set soak's
// faults.
func testMinibatchChaosSoak(t *testing.T, transport kylix.Transport) {
	baseline, baseRes := runMinibatchSoak(t, transport, kylix.FaultPlan{Seed: 53})
	chaos, chaosRes := runMinibatchSoak(t, transport, reconfigChaosPlan())
	for r := range baseline {
		// Recycling that went wrong the same way in both runs would pass
		// the comparison, so the fault-free run is checked against sums
		// taken here.
		sums := [2]map[int32]float64{{}, {}}
		for q := 0; q < soakLogical; q++ {
			idx, moved, vals := minibatchRound(q, r)
			for i, v := range vals {
				sums[0][idx[i]] += float64(v)
				sums[1][moved[i]] += float64(v)
			}
		}
		for p := range baseline[r] {
			idx, moved, _ := minibatchRound(p%soakLogical, r)
			for i, list := range [2][]int32{idx, moved} {
				for j, x := range list {
					if got, want := float64(baseRes[r][p][i][j]), sums[i][x]; math.Abs(got-want) > 1e-4*math.Abs(want) {
						t.Fatalf("round %d rank %d pass %d: index %d reduced to %v, want %v", r, p, i, x, got, want)
					}
				}
			}
			if chaos[r][p] != baseline[r][p] {
				t.Errorf("round %d rank %d: chaos digests %#x differ from fault-free %#x", r, p, chaos[r][p], baseline[r][p])
			}
			if p >= soakLogical && chaos[r][p] != chaos[r][p-soakLogical] {
				t.Errorf("round %d: replica digests of logical %d disagree", r, p-soakLogical)
			}
			for i := range chaosRes[r][p] {
				if !bitsEqual(chaosRes[r][p][i], baseRes[r][p][i]) {
					t.Errorf("round %d rank %d pass %d: chaos result %v differs from fault-free %v",
						r, p, i, chaosRes[r][p][i], baseRes[r][p][i])
				}
			}
		}
	}
}

func TestMinibatchChaosSoakMemory(t *testing.T) { testMinibatchChaosSoak(t, kylix.TransportMemory) }

func TestMinibatchChaosSoakTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP soak skipped in -short")
	}
	testMinibatchChaosSoak(t, kylix.TransportTCP)
}

func TestChaosSoakMemory(t *testing.T) { testChaosSoak(t, kylix.TransportMemory) }

// TestChaosSoakTCP also runs with every released receive buffer
// poisoned: the schedule leaves duplicates the reduction drops and
// replica copies the mailbox cancels beside the pieces it folds and
// hands back, and a piece read after its release would turn the sums
// into NaN on both TCP passes alike — so the fault-free one must equal
// the memory transport's, bit for bit.
func TestChaosSoakTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP soak skipped in -short")
	}
	comm.PoisonReleased(true)
	defer comm.PoisonReleased(false)
	tcp := testChaosSoak(t, kylix.TransportTCP)
	mem, _, _ := runSoak(t, kylix.TransportMemory, kylix.FaultPlan{Seed: 42}, soakRounds)
	for r := range mem {
		for p := range mem[r] {
			if !bitsEqual(tcp[r][p], mem[r][p]) {
				t.Fatalf("round %d rank %d: %v over TCP, %v in memory", r, p, tcp[r][p], mem[r][p])
			}
		}
	}
}

// TestClusterKillWorksOnTCPWithFaults: Cluster.Kill historically
// required the memory transport; with a fault fabric it now works over
// TCP too (manual kill between rounds, survivors keep the results).
func TestClusterKillWorksOnTCPWithFaults(t *testing.T) {
	cluster, err := kylix.NewCluster(8, kylix.WithTransport(kylix.TransportTCP),
		kylix.WithReplication(2), kylix.WithDegrees(2, 2),
		kylix.WithRecvTimeout(10*time.Second),
		kylix.WithFaults(kylix.FaultPlan{Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Kill(5); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[int]float32{}
	err = cluster.Run(func(node *kylix.Node) error {
		red, err := node.Configure([]int32{3}, []int32{3})
		if err != nil {
			return err
		}
		res, err := red.Reduce([]float32{2})
		if err != nil {
			return err
		}
		mu.Lock()
		got[node.PhysicalRank()] = res[0]
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("%d survivors finished, want 7", len(got))
	}
	for p, v := range got {
		if v != 8 { // 4 logical ranks x 2
			t.Fatalf("rank %d: %f, want 8", p, v)
		}
	}
}
