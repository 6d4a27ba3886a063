package kylix_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kylix"
	"kylix/internal/sparse"
)

// The root API speaks the caller's index order; the protocol speaks key
// (hash) order. These tests pin the adapter between the two: the order
// the caller happens to hold its indices in, duplicates in `in`, and
// whether `in` and `out` are one slice or two must change nothing but
// where each value sits in the result.

const orderRanks = 4

// orderCase is one rank's inputs for one way of presenting the same
// sets: in and out index lists and one row of values per out index.
type orderCase struct {
	in, out []int32
	vals    []float32
}

// orderInputs builds rank r's key-ordered sets for one generation (gen 0
// is configured first, gen 1 is what Reconfigure moves to: a tenth of
// the indices differ) and its values, a pure function of (r, index,
// column), so every presentation of the sets carries the same data.
func orderInputs(r, gen, width int) (keyed []int32, val func(idx int32, c int) float32) {
	rng := rand.New(rand.NewSource(int64(1000 + r)))
	idx := make([]int32, 0, 60)
	for len(idx) < 60 {
		idx = append(idx, int32(rng.Intn(200)))
	}
	if gen == 1 {
		for i := 0; i < len(idx); i += 10 {
			idx[i] = int32(200 + rng.Intn(50))
		}
	}
	return sparse.MustNewSet(idx).Indices(), func(idx int32, c int) float32 {
		return float32(math.Sin(float64(int(idx)*31+r*7+c*3+gen))) * 10
	}
}

func rowsFor(out []int32, width int, val func(int32, int) float32) []float32 {
	vals := make([]float32, 0, len(out)*width)
	for _, idx := range out {
		for c := 0; c < width; c++ {
			vals = append(vals, val(idx, c))
		}
	}
	return vals
}

// presentations returns the three ways a caller may hold the same sets:
// (a) one key-ordered slice passed as both in and out, (b) a seeded
// shuffle with duplicates injected into in, (c) in and out as distinct
// slices with equal contents.
func presentations(r, gen, width int) map[string]orderCase {
	keyed, val := orderInputs(r, gen, width)
	rng := rand.New(rand.NewSource(int64(77 + r + 10*gen)))
	shuffledOut := append([]int32(nil), keyed...)
	rng.Shuffle(len(shuffledOut), func(i, j int) { shuffledOut[i], shuffledOut[j] = shuffledOut[j], shuffledOut[i] })
	shuffledIn := append([]int32(nil), keyed...)
	for i := 0; i < 9; i++ {
		shuffledIn = append(shuffledIn, keyed[rng.Intn(len(keyed))])
	}
	rng.Shuffle(len(shuffledIn), func(i, j int) { shuffledIn[i], shuffledIn[j] = shuffledIn[j], shuffledIn[i] })
	return map[string]orderCase{
		"keyed":    {keyed, keyed, rowsFor(keyed, width, val)},
		"shuffled": {shuffledIn, shuffledOut, rowsFor(shuffledOut, width, val)},
		"distinct": {append([]int32(nil), keyed...), append([]int32(nil), keyed...), rowsFor(keyed, width, val)},
	}
}

// unshuffle returns res (one row per position of in) as one row per
// index of keyed; two positions holding the same index must agree.
func unshuffle(res []float32, in, keyed []int32, width int) ([]float32, error) {
	if len(res) != len(in)*width {
		return nil, fmt.Errorf("result has %d values for %d in indices x width %d", len(res), len(in), width)
	}
	rows := map[int32][]float32{}
	for p, idx := range in {
		row := res[p*width : (p+1)*width]
		if prev, ok := rows[idx]; ok && !bitsEqual(prev, row) {
			return nil, fmt.Errorf("index %d delivered %v and %v at two positions", idx, prev, row)
		}
		rows[idx] = row
	}
	flat := make([]float32, 0, len(keyed)*width)
	for _, idx := range keyed {
		flat = append(flat, rows[idx]...)
	}
	return flat, nil
}

// orderResult is what one rank saw under one presentation, un-shuffled:
// a vector per root-API entry point, and the routing digest before and
// after Reconfigure.
type orderResult struct {
	vecs    map[string][]float32
	digests [2]uint64
}

func runOrderCase(node *kylix.Node, name string, width int) (orderResult, error) {
	r := node.Rank()
	c0, c1 := presentations(r, 0, width)[name], presentations(r, 1, width)[name]
	keyed0, _ := orderInputs(r, 0, width)
	keyed1, _ := orderInputs(r, 1, width)
	res := orderResult{vecs: map[string][]float32{}}
	keep := func(call string, got []float32, err error, in, keyed []int32) error {
		if err == nil {
			res.vecs[call], err = unshuffle(got, in, keyed, width)
		}
		if err != nil {
			return fmt.Errorf("rank %d %s %s: %w", r, name, call, err)
		}
		return nil
	}

	red, err := node.Configure(c0.in, c0.out)
	if err != nil {
		return res, err
	}
	res.digests[0] = red.ConfigDigest()
	got, err := red.Reduce(c0.vals)
	if err := keep("Reduce", got, err, c0.in, keyed0); err != nil {
		return res, err
	}
	_, got, err = node.ConfigureReduce(c0.in, c0.out, c0.vals)
	if err := keep("ConfigureReduce", got, err, c0.in, keyed0); err != nil {
		return res, err
	}
	if err := red.Reconfigure(c1.in, c1.out); err != nil {
		return res, err
	}
	res.digests[1] = red.ConfigDigest()
	got, err = red.Reduce(c1.vals)
	if err := keep("Reconfigure+Reduce", got, err, c1.in, keyed1); err != nil {
		return res, err
	}
	got, _, err = node.TreeAllreduce(c0.in, c0.out, c0.vals)
	return res, keep("TreeAllreduce", got, err, c0.in, keyed0)
}

func TestRootOrderInvariance(t *testing.T) {
	reducers := map[string]kylix.Reducer{"sum": kylix.Sum, "max": kylix.Max}
	for _, transport := range []kylix.Transport{kylix.TransportMemory, kylix.TransportTCP} {
		for _, width := range []int{1, 3, 4} {
			for redName, reducer := range reducers {
				t.Run(fmt.Sprintf("%v/w%d/%s", transport, width, redName), func(t *testing.T) {
					cluster, err := kylix.NewCluster(orderRanks, kylix.WithTransport(transport), kylix.WithDegrees(2, 2),
						kylix.WithWidth(width), kylix.WithReducer(reducer), kylix.WithRecvTimeout(15*time.Second))
					if err != nil {
						t.Fatal(err)
					}
					defer cluster.Close()
					names := []string{"keyed", "shuffled", "distinct"}
					results := make([]map[string]orderResult, orderRanks)
					var mu sync.Mutex
					err = cluster.Run(func(node *kylix.Node) error {
						mine := map[string]orderResult{}
						for _, name := range names {
							res, err := runOrderCase(node, name, width)
							if err != nil {
								return err
							}
							mine[name] = res
						}
						mu.Lock()
						results[node.Rank()] = mine
						mu.Unlock()
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					for r, mine := range results {
						want := mine["keyed"]
						for _, name := range names[1:] {
							got := mine[name]
							if got.digests != want.digests {
								t.Errorf("rank %d %s: config digests %x, key-ordered %x", r, name, got.digests, want.digests)
							}
							for call, vec := range want.vecs {
								if !bitsEqual(got.vecs[call], vec) {
									t.Errorf("rank %d %s %s: un-shuffled result differs from key-ordered call", r, name, call)
								}
								if g, w := kylix.ValuesDigest(got.vecs[call]), kylix.ValuesDigest(vec); g != w {
									t.Errorf("rank %d %s %s: values digest %x, key-ordered %x", r, name, call, g, w)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestReduceDoesNotRetainOutVals is the staging buffer's reason to
// exist: Reduce sends from a buffer the Reduction owns, so the caller
// may overwrite outVals the moment Reduce returns — even while a slow
// replica has not yet consumed the pass's messages.
func TestReduceDoesNotRetainOutVals(t *testing.T) {
	const (
		logical = 4
		rounds  = 12
	)
	for _, transport := range []kylix.Transport{kylix.TransportMemory, kylix.TransportTCP} {
		for _, name := range []string{"keyed", "shuffled"} {
			t.Run(fmt.Sprintf("%v/%s", transport, name), func(t *testing.T) {
				cluster, err := kylix.NewCluster(2*logical, kylix.WithTransport(transport), kylix.WithReplication(2),
					kylix.WithDegrees(2, 2), kylix.WithRecvTimeout(15*time.Second),
					kylix.WithFaults(kylix.FaultPlan{Seed: 5, Delay: 0.5, MaxDelay: 3 * time.Millisecond}))
				if err != nil {
					t.Fatal(err)
				}
				defer cluster.Close()
				// Small integers, so the expected sums are exact whatever
				// the fold order.
				contrib := func(q, round int, idx int32) float32 { return float32((q+1)*(round+1) + int(idx)%5) }
				holders := map[int32][]int{} // index -> logical ranks contributing it
				for q := 0; q < logical; q++ {
					keyed, _ := orderInputs(q, 0, 1)
					for _, idx := range keyed {
						holders[idx] = append(holders[idx], q)
					}
				}
				want := func(round int, idx int32) (sum float32) {
					for _, q := range holders[idx] {
						sum += contrib(q, round, idx)
					}
					return sum
				}
				err = cluster.Run(func(node *kylix.Node) error {
					q := node.Rank()
					c := presentations(q, 0, 1)[name]
					red, err := node.Configure(c.in, c.out)
					if err != nil {
						return err
					}
					buf := make([]float32, len(c.out))
					for round := 0; round < rounds; round++ {
						for p, idx := range c.out {
							buf[p] = contrib(q, round, idx)
						}
						res, err := red.Reduce(buf)
						for p := range buf {
							buf[p] = float32(math.NaN())
						}
						if err != nil {
							return err
						}
						for p, idx := range c.in {
							if w := want(round, idx); res[p] != w {
								return fmt.Errorf("rank %d round %d index %d: got %v, want %v", node.PhysicalRank(), round, idx, res[p], w)
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if st := cluster.Faults().Stats(); st.Delayed == 0 {
					t.Fatalf("delay schedule never engaged: %+v", st)
				}
			})
		}
	}
}

// TestReduceIntoMatchesReduce: ReduceInto writes what Reduce returns,
// bit for bit, into the caller's slice: in place when it has the room,
// grown when it has not, and also when it is outVals itself, which is
// staged before anything is sent.
func TestReduceIntoMatchesReduce(t *testing.T) {
	const width = 2
	for _, transport := range []kylix.Transport{kylix.TransportMemory, kylix.TransportTCP} {
		t.Run(fmt.Sprint(transport), func(t *testing.T) {
			cluster, err := kylix.NewCluster(orderRanks, kylix.WithTransport(transport), kylix.WithDegrees(2, 2), kylix.WithWidth(width))
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			err = cluster.Run(func(node *kylix.Node) error {
				for _, name := range []string{"keyed", "shuffled", "distinct"} {
					c := presentations(node.Rank(), 0, width)[name]
					red, err := node.Configure(c.in, c.out)
					if err != nil {
						return err
					}
					want, err := red.Reduce(c.vals)
					if err != nil {
						return err
					}
					vals := slices.Clone(c.vals)
					for _, dst := range []struct {
						name    string
						dst, in []float32
					}{
						{"nil", nil, c.vals},
						{"short", make([]float32, 1), c.vals},
						{"roomy", make([]float32, 3, 2*len(want)), c.vals},
						{"outVals", vals, vals},
					} {
						got, err := red.ReduceInto(dst.dst, dst.in)
						switch {
						case err != nil:
							return err
						case kylix.ValuesDigest(got) != kylix.ValuesDigest(want):
							return fmt.Errorf("rank %d %s, dst %s: ReduceInto digest %x, Reduce %x", node.Rank(), name, dst.name, kylix.ValuesDigest(got), kylix.ValuesDigest(want))
						case cap(dst.dst) >= len(want) && &got[:1][0] != &dst.dst[:1][0]:
							return fmt.Errorf("rank %d %s, dst %s: a slice with room for the result was not reused", node.Rank(), name, dst.name)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// barrier is a reusable rendezvous for n goroutines that allocates
// nothing per use.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	round   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	if b.waiting++; b.waiting == b.n {
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
	}
	for round == b.round {
		b.cond.Wait()
	}
}

// TestReduceAllocatesOnlyTheResult gates the adapter's cost and the
// transports': a warm Reduce allocates the slice it returns and nothing
// else, on every rank — over memory, where nothing is copied, and over
// TCP, where every received value block is decoded into a buffer the
// reduction handed back a pass earlier. A warm ReduceInto, handed back
// the slice it returned a pass earlier, allocates nothing at all.
func TestReduceAllocatesOnlyTheResult(t *testing.T) {
	const runs = 20
	for _, tc := range []struct {
		name      string
		quant     kylix.Quantization
		transport kylix.Transport
	}{
		{"keyed", kylix.QuantOff, kylix.TransportMemory}, {"shuffled", kylix.QuantOff, kylix.TransportMemory},
		{"keyed", kylix.QuantFP16, kylix.TransportMemory}, {"shuffled", kylix.QuantINT8, kylix.TransportMemory},
		{"keyed", kylix.QuantOff, kylix.TransportTCP}, {"shuffled", kylix.QuantFP16, kylix.TransportTCP},
		{"keyed", kylix.QuantINT8, kylix.TransportTCP},
		{"into/keyed", kylix.QuantOff, kylix.TransportMemory}, {"into/shuffled", kylix.QuantFP16, kylix.TransportMemory},
		{"into/shuffled", kylix.QuantINT8, kylix.TransportMemory},
		{"into/shuffled", kylix.QuantOff, kylix.TransportTCP}, {"into/keyed", kylix.QuantFP16, kylix.TransportTCP},
		{"into/shuffled", kylix.QuantINT8, kylix.TransportTCP},
	} {
		name, into, row := strings.TrimPrefix(tc.name, "into/"), strings.HasPrefix(tc.name, "into/"), fmt.Sprintf("%s/%v", tc.name, tc.quant)
		if tc.transport == kylix.TransportTCP {
			row += "/tcp"
		}
		want := orderRanks // the result, once per rank
		if into {
			want = 0
		}
		t.Run(row, func(t *testing.T) {
			cluster, err := kylix.NewCluster(orderRanks, kylix.WithDegrees(2, 2), kylix.WithQuantization(tc.quant),
				kylix.WithTransport(tc.transport))
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			var perPass float64
			done := newBarrier(orderRanks)
			err = cluster.Run(func(node *kylix.Node) error {
				c := presentations(node.Rank(), 0, 1)[name]
				red, err := node.Configure(c.in, c.out)
				if err != nil {
					return err
				}
				// AllocsPerRun counts the whole process. A pass ends when
				// every rank's Reduce has returned, so one counted pass is
				// exactly one Reduce on every rank.
				var dst []float32
				pass := func() {
					var rerr error
					if into {
						dst, rerr = red.ReduceInto(dst, c.vals)
					} else {
						_, rerr = red.Reduce(c.vals)
					}
					if rerr != nil && err == nil {
						err = rerr
					}
					done.wait()
				}
				// Both arena generations are built before anything is
				// counted.
				pass()
				pass()
				if node.Rank() == 0 {
					perPass = testing.AllocsPerRun(runs, pass)
				} else {
					for i := 0; i <= runs; i++ { // AllocsPerRun adds a warm-up call
						pass()
					}
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if perPass != float64(want) {
				t.Fatalf("a warm pass on %d ranks allocated %v times, want %d", orderRanks, perPass, want)
			}
		})
	}

	// The arena is the machine's, so from the third pass on — both
	// generations have grown to the sets by then — a pass over fresh
	// Configs allocates their routing state, residuals and results and no
	// arena. The figures are the KiB one pass of each row allocated, on all
	// ranks together, when every Config built its own arena (commit
	// 227e5d8, this very loop, least of three runs); the arena's size is
	// computed, a lower bound, from the union sizes the Reduction reports.
	const warm, passes, width = 2, 10, 2
	for _, tc := range []struct {
		quant     kylix.Quantization
		transport kylix.Transport
		// fresh: a pass is ConfigureReduce + Reduce inside one Cluster.Run;
		// stream: a pass is one Stream.Run of Configure + 4 x Reduce, whose
		// machines are new every time and inherit the stream's memory.
		fresh, stream float64
	}{
		{kylix.QuantOff, kylix.TransportMemory, 1613, 2016}, {kylix.QuantINT8, kylix.TransportMemory, 2184, 2596},
		{kylix.QuantOff, kylix.TransportTCP, 1889, 2231}, {kylix.QuantINT8, kylix.TransportTCP, 2472, 2791},
	} {
		cluster, err := kylix.NewCluster(orderRanks, kylix.WithDegrees(2, 2), kylix.WithWidth(width),
			kylix.WithQuantization(tc.quant), kylix.WithTransport(tc.transport))
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		// check compares what the measured passes allocated with the
		// parent's figure less the two generations every pass carves and
		// the kept bytes a pass no longer builds.
		arena := make([]int, orderRanks)
		check := func(t *testing.T, parentKiB float64, kept int, before, after *runtime.MemStats) {
			if raceEnabled && tc.transport == kylix.TransportTCP {
				t.Skip("under the race detector sync.Pool drops items at random, and the index codec's pooled sort scratch is allocated anew")
			}
			carved := 0
			for _, a := range arena {
				carved += 2 * a
			}
			perPass := float64(after.TotalAlloc-before.TotalAlloc) / passes / 1024
			t.Logf("%.1f KiB per pass (parent %.1f, arena %.1f, kept %.1f)", perPass, parentKiB, float64(carved)/1024, float64(kept)/1024)
			if limit := parentKiB - float64(carved+kept)/1024; perPass > limit {
				t.Fatalf("a pass on a warm machine allocated %.1f KiB, want at most %.1f: the parent's %.1f less the arena's %.1f and the kept %.1f",
					perPass, limit, parentKiB, float64(carved)/1024, float64(kept)/1024)
			}
		}
		t.Run(fmt.Sprintf("fresh-sets/%v/%v", tc.transport, tc.quant), func(t *testing.T) {
			var before, after runtime.MemStats
			done := newBarrier(orderRanks)
			err := cluster.Run(func(node *kylix.Node) (err error) {
				r := node.Rank()
				c := arenaInputs(r, width)
				for i := 0; i < warm+passes; i++ {
					if i == warm {
						done.wait()
						if r == 0 {
							runtime.ReadMemStats(&before)
						}
						done.wait()
					}
					red, _, rerr := node.ConfigureReduce(c.in, c.out, c.vals)
					if rerr == nil {
						arena[r] = red.ArenaBytes()
						_, rerr = red.Reduce(c.vals)
					}
					if err == nil {
						err = rerr
					}
				}
				done.wait()
				if r == 0 {
					runtime.ReadMemStats(&after)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			check(t, tc.fresh, 0, &before, &after)
		})
		t.Run(fmt.Sprintf("stream-run/%v/%v", tc.transport, tc.quant), func(t *testing.T) {
			st, err := cluster.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			var before, after runtime.MemStats
			for i := 0; i < warm+passes; i++ {
				if i == warm {
					runtime.ReadMemStats(&before)
				}
				err := st.Run(func(node *kylix.Node) error {
					c := arenaInputs(node.Rank(), width)
					red, err := node.Configure(c.in, c.out)
					for j := 0; j < 4 && err == nil; j++ {
						_, err = red.Reduce(c.vals)
					}
					if err == nil {
						arena[node.Rank()] = red.ArenaBytes()
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			check(t, tc.stream, preparedBytes(width), &before, &after)
		})
		t.Run(fmt.Sprintf("stream-run/unchanged/%v/%v", tc.transport, tc.quant), func(t *testing.T) {
			if raceEnabled {
				t.Skip("under the race detector sync.Pool drops items at random, and NewSet's and the index codec's pooled sort scratch is allocated anew")
			}
			st, err := cluster.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			// What a Run must allocate: on every rank, its results. The sets
			// the last Run prepared are the stream's, kept for this one.
			inputs, owned := make([]orderCase, orderRanks), 0
			for r := range inputs {
				inputs[r] = arenaInputs(r, width)
				owned += 4 * len(inputs[r].in) * width * 4
			}
			var before, after runtime.MemStats
			for i := 0; i < warm+passes; i++ {
				if i == warm {
					runtime.ReadMemStats(&before)
				}
				if err := st.Run(func(node *kylix.Node) error {
					c := &inputs[node.Rank()]
					red, err := node.Configure(c.in, c.out)
					for j := 0; j < 4 && err == nil; j++ {
						_, err = red.Reduce(c.vals)
					}
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perPass := float64(after.TotalAlloc-before.TotalAlloc) / passes
			beyond := (perPass - float64(owned)) / 1024 / orderRanks
			t.Logf("%.1f KiB per Run, %.1f KiB of it results, %.1f KiB per rank beyond", perPass/1024, float64(owned)/1024, beyond)
			// Beyond those, a rank allocates its Machine, Node, Reduction and
			// Config headers and, over TCP, the markers it receives: a few KiB.
			// Unions and maps alone would be tens of KiB, and so would int8
			// residuals.
			if beyond > 16 {
				t.Fatalf("a Run on unchanged sets allocated %.1f KiB per rank beyond its results, want at most 16: it rebuilt sets, routing state or residuals", beyond)
			}
		})
	}
}

// TestDriftingStepAllocatesItsStateOnce pins what a step of the
// minibatch shape allocates — ConfigureReduce on a fresh batch, a
// Reconfigure to the batch with a tenth of its indices replaced, a
// ReduceInto the caller's last result — to the result the fused pass
// returns and one routing state: each step supersedes the last step's
// two, and its rebuilds take the blocks they leave.
func TestDriftingStepAllocatesItsStateOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random, and NewSet's pooled sort scratch is allocated anew")
	}
	const ranks, batches, warm, steps = 8, 8, 10, 100
	cluster, err := kylix.NewCluster(ranks, kylix.WithDegrees(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	type batch struct {
		idx, moved []int32
		vals       []float32
	}
	in := make([][]batch, ranks)
	rng := rand.New(rand.NewSource(20140901))
	for r := range in {
		for range batches {
			raw := make([]int32, 2048)
			for i := range raw {
				raw[i] = rng.Int31n(1 << 16)
			}
			idx := sparse.MustNewSet(raw).Indices() // key order, as the protocol hands sets back
			moved := slices.Clone(idx)
			for j := 0; j < len(moved); j += 10 {
				moved[j] = rng.Int31n(1 << 16)
			}
			moved = sparse.MustNewSet(moved).Indices() // no duplicates, out of key order from here
			rng.Shuffle(len(moved), func(i, j int) { moved[i], moved[j] = moved[j], moved[i] })
			vals := make([]float32, max(len(idx), len(moved)))
			for i := range vals {
				vals[i] = rng.Float32()
			}
			in[r] = append(in[r], batch{idx, moved, vals})
		}
	}
	dst := make([][]float32, ranks)
	owed := make([]int, ranks) // results + routing state, per rank, over the measured steps
	run := func(from, to int) {
		err := cluster.Run(func(node *kylix.Node) error {
			r := node.Rank()
			for i := from; i < to; i++ {
				b := in[r][i%batches]
				red, res, err := node.ConfigureReduce(b.idx, b.idx, b.vals[:len(b.idx)])
				if err == nil {
					err = red.Reconfigure(b.moved, b.moved)
				}
				if err == nil {
					dst[r], err = red.ReduceInto(dst[r], b.vals[:len(b.moved)])
				}
				if err != nil {
					return err
				}
				owed[r] += 4*len(res) + red.RoutingBytes()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run(0, warm)
	clear(owed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(warm, warm+steps)
	runtime.ReadMemStats(&after)
	total := 0
	for _, o := range owed {
		total += o
	}
	perStep, limit := float64(after.TotalAlloc-before.TotalAlloc)/steps, 1.25*float64(total)/steps
	t.Logf("%.1f KiB a step on %d ranks; results and one routing state %.1f KiB", perStep/1024, ranks, float64(total)/steps/1024)
	if perStep > limit {
		t.Fatalf("a drifting step allocated %.1f KiB, want at most %.1f (1.25 x results and one routing state): it rebuilt superseded state or derived maps anew", perStep/1024, limit/1024)
	}
}

// preparedBytes is what prepareSets built for arenaInputs on all ranks
// when the stream-run rows' parent figures were measured — per key the
// Set, the caller-to-key order map and the inverse of the out
// permutation — and a Stream.Run over unchanged lists keeps from the last.
func preparedBytes(width int) int {
	n := 0
	for r := 0; r < orderRanks; r++ {
		n += len(arenaInputs(r, width).out) * (8 + 4 + 4)
	}
	return n
}

// arenaInputs is rank r's sets and values for the allocation rows that
// weigh the arena: large enough that it stands clear of the odd stray
// allocation, in the caller's (shuffled) order.
func arenaInputs(r, width int) orderCase {
	rng := rand.New(rand.NewSource(int64(4000 + r)))
	idx := make([]int32, 3000)
	for i := range idx {
		idx[i] = int32(rng.Intn(6000))
	}
	out := sparse.MustNewSet(idx).Indices()
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	vals := make([]float32, len(out)*width)
	for i := range vals {
		vals[i] = rng.Float32()
	}
	return orderCase{in: out, out: out, vals: vals}
}
