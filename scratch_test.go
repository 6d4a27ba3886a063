package kylix

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kylix/internal/core"
	"kylix/internal/sparse"
)

// scratchPass is one Run's worth of work for the scratch hand-off tests:
// Configure over rank-seeded sets and three Reduces, returning every
// rank's digest of the last result. It works on a Cluster and on a
// Stream; seed varies the sets and values between namespaces.
func scratchPass(run func(func(*Node) error) error, ranks, width int, seed int64) ([]uint64, error) {
	digests := make([]uint64, ranks)
	var mu sync.Mutex
	err := run(func(n *Node) error {
		q := n.Rank()
		rng := rand.New(rand.NewSource(seed + int64(q)))
		idx := make([]int32, 200)
		for i := range idx {
			idx[i] = int32(rng.Intn(500))
		}
		out := sparse.MustNewSet(idx).Indices()
		vals := make([]float32, len(out)*width)
		for i := range vals {
			vals[i] = rng.Float32() + 0.5
		}
		red, err := n.Configure(out, out)
		var res []float32
		for i := 0; i < 3 && err == nil; i++ {
			res, err = red.Reduce(vals)
		}
		mu.Lock()
		digests[q] = ValuesDigest(res)
		mu.Unlock()
		return err
	})
	return digests, err
}

// held is what a namespace keeps for its next Run, per physical rank.
func held(kept *atomic.Pointer[keptNodes]) []*Node {
	if h := kept.Load(); h != nil {
		return h.ranks
	}
	return nil
}

// TestFailedRunDropsItsScratch: a Run that fails — a machine killed
// mid-pass, replication 1, the survivors timing out on its pieces —
// leaves payloads nobody will ever consume pointing into its machines'
// memory, so none of its nodes may be kept: the next Run, on the
// survivors' epoch, builds fresh ones and returns exactly what a freshly
// built cluster of that shape returns.
func TestFailedRunDropsItsScratch(t *testing.T) {
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	const m, width = 8, 2
	opts := []Option{WithDegrees(4, 2), WithQuantization(QuantINT8), WithWidth(width)}
	c, err := NewCluster(m, append(opts, WithElastic(elasticOpts(1)), WithRecvTimeout(300*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := scratchPass(c.Run, m, width, 7); err != nil {
		t.Fatal(err)
	}
	for r, sc := range held(&c.nodes)[:m] {
		if sc == nil {
			t.Fatalf("rank %d: a successful Run put no scratch back", r)
		}
	}
	if got := c.HeldSets(); got != m {
		t.Fatalf("a successful Run kept %d ranks' prepared sets, want %d", got, m)
	}

	var once sync.Once
	_, err = scratchPass(func(fn func(*Node) error) error {
		return c.Run(func(n *Node) error {
			if _, _, err := n.ConfigureReduce([]int32{0}, []int32{0}, make([]float32, width)); err != nil {
				return err
			}
			once.Do(func() { err = c.Kill(3) }) // mid-Run: every rank is past its first pass
			if err != nil {
				return err
			}
			return fn(n)
		})
	}, m, width, 7)
	if err == nil {
		t.Fatal("the Run survived losing an unreplicated machine")
	}
	for r, sc := range held(&c.nodes) {
		if sc != nil {
			t.Fatalf("rank %d: a failed Run put its scratch back", r)
		}
	}
	if got := c.HeldSets(); got != 0 {
		t.Fatalf("a failed Run kept %d ranks' prepared sets", got)
	}

	if err := c.Replace(3, 8); err != nil {
		t.Fatal(err)
	}
	got, err := scratchPass(c.Run, m, width, 7)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCluster(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := scratchPass(fresh.Run, m, width, 7)
	if err != nil {
		t.Fatal(err)
	}
	for q := range want {
		if got[q] != want[q] {
			t.Fatalf("logical rank %d: digest %#x after the failed Run, %#x on a fresh cluster", q, got[q], want[q])
		}
	}
}

// TestStreamsKeepTheirOwnScratch: every namespace — the default one and
// each Stream — hands its nodes, with their machines' memory, from one
// of its Runs to the next and to no other namespace, whatever the
// interleaving, so tenants of different width and quantization never
// carve each other's slabs, and each sees exactly what it sees alone on
// a cluster.
func TestStreamsKeepTheirOwnScratch(t *testing.T) {
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	const m, rounds = 4, 4
	type tenant struct {
		opts  []Option
		width int
		seed  int64
	}
	tenants := []tenant{
		{[]Option{WithQuantization(QuantINT8), WithWidth(4)}, 4, 100},
		{[]Option{WithQuantization(QuantFP16), WithWidth(1)}, 1, 200},
	}
	open := func() (*Cluster, []*Stream) {
		c, err := NewCluster(m, WithDegrees(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		streams := make([]*Stream, len(tenants))
		for k, tn := range tenants {
			if streams[k], err = c.OpenStream(tn.opts...); err != nil {
				t.Fatal(err)
			}
		}
		return c, streams
	}
	// Each tenant alone: its streams's Runs with nothing in between.
	alone := make([][][]uint64, len(tenants))
	for k, tn := range tenants {
		_, streams := open()
		for i := 0; i < rounds; i++ {
			ds, err := scratchPass(streams[k].Run, m, tn.width, tn.seed+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			alone[k] = append(alone[k], ds)
		}
	}

	c, streams := open()
	var first [][]*Node // per namespace, the nodes its first Run left
	for i := 0; i < rounds; i++ {
		got := make([][]uint64, len(tenants))
		errs := make([]error, len(tenants))
		var wg sync.WaitGroup
		for k, tn := range tenants {
			wg.Add(1)
			pass := func() {
				defer wg.Done()
				got[k], errs[k] = scratchPass(streams[k].Run, m, tn.width, tn.seed+int64(i))
			}
			if i%2 == 0 {
				pass() // one after the other
			} else {
				go pass() // in flight together
			}
		}
		wg.Wait()
		if _, err := scratchPass(c.Run, m, 1, 300); err != nil {
			t.Fatal(err)
		}
		for k := range tenants {
			if errs[k] != nil {
				t.Fatal(errs[k])
			}
			if fmt.Sprint(got[k]) != fmt.Sprint(alone[k][i]) {
				t.Fatalf("round %d tenant %d: digests %x interleaved, %x alone", i, k, got[k], alone[k][i])
			}
		}
		now := [][]*Node{held(&c.nodes), held(&streams[0].nodes), held(&streams[1].nodes)}
		if first == nil {
			first = now
		}
		owner := map[*Node]int{}
		for ns, scs := range now {
			for r, sc := range scs {
				if sc == nil || sc != first[ns][r] {
					t.Fatalf("round %d namespace %d rank %d: scratch %p, first Run left %p", i, ns, r, sc, first[ns][r])
				}
				if other, dup := owner[sc]; dup {
					t.Fatalf("round %d: namespaces %d and %d share rank %d's scratch", i, other, ns, r)
				}
				owner[sc] = ns
			}
		}
	}
}
