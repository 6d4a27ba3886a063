package kylix_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"kylix"
	"kylix/internal/core"
	"kylix/internal/sparse"
)

// A Run's Configure continues from the Config its rank's last
// configuration pass in the namespace left in the last successful Run,
// kept in the namespace's machine memory, shipping two-byte markers for
// the pieces that did not change. These tests hold that to a fresh cluster running
// the same Run alone: the same routing state (ConfigDigest) and the same
// results bit for bit, quantized ones included, so error feedback never
// carries from one Run into the next and no two live Reductions share a
// residual slab.

const baseReduces = 3

// baseVals is logical rank q's values for the j-th Reduce of a Run: not
// small integers, so int8 and fp16 round, and each Reduce's residuals
// feed the next.
func baseVals(set []int32, q, j int) []float32 {
	vals := make([]float32, len(set))
	for i, idx := range set {
		vals[i] = float32(idx%97)/7 + float32(q+1)/float32(j+3)
	}
	return vals
}

// baseOutcome is what one Run left on every logical rank: its
// Reduction's digest and a digest of each Reduce result.
type baseOutcome struct {
	config []uint64
	values [][baseReduces]uint64
}

// baseRun runs one Run: logical rank q configures its neighbour's set as
// in and its own as out, then reduces baseReduces times. Replicas of a
// logical rank must agree. With fail, physical rank 0 returns an error
// once all of that is done.
func baseRun(run func(func(*kylix.Node) error) error, sets [][]int32, fail bool) (baseOutcome, error) {
	m := len(sets)
	got := baseOutcome{config: make([]uint64, m), values: make([][baseReduces]uint64, m)}
	seen := make([]bool, m)
	var mu sync.Mutex
	err := run(func(node *kylix.Node) error {
		q := node.Rank()
		red, err := node.Configure(sets[(q+1)%m], sets[q])
		if err != nil {
			return err
		}
		var values [baseReduces]uint64
		for j := range values {
			res, err := red.Reduce(baseVals(sets[q], q, j))
			if err != nil {
				return err
			}
			values[j] = kylix.ValuesDigest(res)
		}
		mu.Lock()
		defer mu.Unlock()
		if seen[q] && (got.config[q] != red.ConfigDigest() || got.values[q] != values) {
			return fmt.Errorf("the replicas of logical rank %d disagree", q)
		}
		seen[q], got.config[q], got.values[q] = true, red.ConfigDigest(), values
		if fail && node.PhysicalRank() == 0 {
			return errors.New("planned failure")
		}
		return nil
	})
	return got, err
}

// configRows returns the configuration rows a cluster recorded since its
// traffic was last reset, one per layer.
func configRows(t *testing.T, c *kylix.Cluster) []kylix.LayerTraffic {
	t.Helper()
	rep, err := c.Traffic(4)
	if err != nil {
		t.Fatal(err)
	}
	var rows []kylix.LayerTraffic
	for _, lt := range rep.Layers {
		if lt.Phase == kylix.PhaseConfig {
			rows = append(rows, lt)
		}
	}
	return rows
}

// volumes prints what configuration rows say about the traffic itself.
func volumes(rows []kylix.LayerTraffic) string {
	s := ""
	for _, lt := range rows {
		s += fmt.Sprintf("L%d: %d msgs, %d bytes, %d on the wire, %d raw; ", lt.Layer, lt.Msgs, lt.Bytes, lt.WireBytes, lt.RawBytes)
	}
	return s
}

// allMarkers reports whether every configuration message was a two-byte
// marker.
func allMarkers(rows []kylix.LayerTraffic) bool {
	for _, lt := range rows {
		if lt.Bytes != 2*lt.Msgs {
			return false
		}
	}
	return len(rows) > 0
}

// baseFresh is a generation's ground truth: a fresh cluster's outcome and
// configuration rows.
type baseFresh struct {
	outcome baseOutcome
	rows    []kylix.LayerTraffic
}

func freshBase(t *testing.T, sets [][]int32, opts ...kylix.Option) baseFresh {
	t.Helper()
	c, err := kylix.NewCluster(len(sets), append(opts, kylix.WithTrace())...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := baseRun(c.Run, sets, false)
	if err != nil {
		t.Fatal(err)
	}
	return baseFresh{got, configRows(t, c)}
}

func (want baseFresh) check(t *testing.T, step string, got baseOutcome) {
	t.Helper()
	for q := range got.config {
		if got.config[q] != want.outcome.config[q] {
			t.Errorf("%s: logical rank %d digest %#x, fresh cluster %#x", step, q, got.config[q], want.outcome.config[q])
		}
		if got.values[q] != want.outcome.values[q] {
			t.Errorf("%s: logical rank %d results %x, fresh cluster %x", step, q, got.values[q], want.outcome.values[q])
		}
	}
}

// baseGenerations is the sets of 8 ranks ("sets"), and the same with one
// index moved on rank 3: dropped, and one nobody holds added ("moved").
func baseGenerations(t *testing.T) map[string][][]int32 {
	sets := zipfSets(t, 8, 2048, 192)
	moved := slices.Clone(sets)
	moved[3] = append(slices.Clone(sets[3][1:]), unheld(sets))
	return map[string][][]int32{"sets": sets, "moved": moved}
}

// unheld is the largest index below 2048 that no set holds.
func unheld(sets [][]int32) int32 {
	idx := int32(2047)
	for slices.ContainsFunc(sets, func(set []int32) bool { return slices.Contains(set, idx) }) {
		idx--
	}
	return idx
}

// cloneSets copies every rank's list into a slice of its own.
func cloneSets(sets [][]int32) [][]int32 {
	out := make([][]int32, len(sets))
	for i, set := range sets {
		out[i] = slices.Clone(set)
	}
	return out
}

// baseMatrix runs test on both transports × raw, fp16 and int8 × both
// entry points, with the arena poisoned at every flip. It hands test the
// cluster options, each generation's ground truth, and entry, which picks
// the entry point — Cluster.Run, or Stream.Run of a new stream — on a
// cluster test built.
func baseMatrix(t *testing.T, gens map[string][][]int32, test func(t *testing.T, opts []kylix.Option, want map[string]baseFresh, entry func(*kylix.Cluster) func(func(*kylix.Node) error) error)) {
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	for _, tr := range []kylix.Transport{kylix.TransportMemory, kylix.TransportTCP} {
		for _, quant := range []kylix.Quantization{kylix.QuantOff, kylix.QuantFP16, kylix.QuantINT8} {
			opts := []kylix.Option{kylix.WithDegrees(4, 2), kylix.WithTransport(tr), kylix.WithQuantization(quant)}
			want := map[string]baseFresh{}
			for name, gen := range gens {
				want[name] = freshBase(t, gen, opts...)
			}
			for _, stream := range []bool{false, true} {
				via := map[bool]string{false: "cluster-run", true: "stream-run"}[stream]
				t.Run(fmt.Sprintf("%s/%v/%s", map[kylix.Transport]string{kylix.TransportMemory: "memory", kylix.TransportTCP: "tcp"}[tr], quant, via), func(t *testing.T) {
					test(t, opts, want, func(c *kylix.Cluster) func(func(*kylix.Node) error) error {
						if !stream {
							return c.Run
						}
						st, err := c.OpenStream()
						if err != nil {
							t.Fatal(err)
						}
						return st.Run
					})
				})
			}
		}
	}
}

// TestConfigureContinuesTheLastRun walks one cluster, elastic with one
// spare, through a sequence of Runs. Every Run's digests and results
// equal a fresh cluster's; what crosses the wire is what the base
// allows. An unchanged Run ships nothing but markers, whether its lists
// are the last Run's slices or equal ones in new slices; one moved index
// re-ships the few pieces it falls in, also when the caller moved it by
// rewriting the last Run's slices in place; after a Run that failed on
// one rank, and after a Replace that keeps every survivor's dense rank
// and degrees but changes its peers, the next Run ships full pieces,
// exactly a fresh cluster's configuration traffic.
func TestConfigureContinuesTheLastRun(t *testing.T) {
	gens := baseGenerations(t)
	m := len(gens["sets"])
	// "rewritten" moves one more index of rank 3, in place of its first.
	rewritten := slices.Clone(gens["moved"])
	rewritten[3] = slices.Clone(rewritten[3])
	rewritten[3][0] = unheld(rewritten)
	gens["rewritten"] = rewritten
	baseMatrix(t, gens, func(t *testing.T, opts []kylix.Option, want map[string]baseFresh, entry func(*kylix.Cluster) func(func(*kylix.Node) error) error) {
		elastic := kylix.ElasticOptions{Spares: 1, Heartbeat: 2 * time.Millisecond, SuspectAfter: time.Second,
			DrainTimeout: time.Second, DisableAutoEvict: true, Seed: 11}
		c, err := kylix.NewCluster(m, append(opts, kylix.WithTrace(), kylix.WithElastic(elastic), kylix.WithRecvTimeout(10*time.Second))...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		run := entry(c)
		var live [][]int32 // the lists of the last Run that took copies
		for _, step := range []struct {
			name, gen     string
			fail, replace bool
			rows          string // full, markers or few
			lists         string // "": the generation's own slices; new: copies; in place: live rewritten
		}{
			{"first Run", "sets", false, false, "full", ""},
			{"unchanged", "sets", false, false, "markers", ""},
			{"one index moved", "moved", false, false, "few", ""},
			{"failing on one rank", "moved", true, false, "markers", ""},
			{"after the failure", "moved", false, false, "full", ""},
			{"after a Replace", "moved", false, true, "full", ""},
			{"unchanged again", "moved", false, false, "markers", ""},
			{"equal content, new slice", "moved", false, false, "markers", "new"},
			{"rewritten in place", "rewritten", false, false, "few", "in place"},
		} {
			if step.replace {
				if err := c.Replace(m-1, m); err != nil {
					t.Fatal(err)
				}
			}
			sets := gens[step.gen]
			switch step.lists {
			case "new":
				live = cloneSets(sets)
				sets = live
			case "in place":
				for q := range live {
					copy(live[q], sets[q])
				}
				sets = live
			}
			c.ResetTraffic()
			got, err := baseRun(run, sets, step.fail)
			if (err != nil) != step.fail {
				t.Fatalf("%s: Run returned %v", step.name, err)
			}
			fresh := want[step.gen]
			fresh.check(t, step.name, got)
			rows := configRows(t, c)
			switch step.rows {
			case "full": // the modelled times differ: the elastic cluster has one more rank
				if volumes(rows) != volumes(fresh.rows) {
					t.Errorf("%s: configuration rows %v, a fresh cluster's %v", step.name, rows, fresh.rows)
				}
			case "markers":
				if !allMarkers(rows) {
					t.Errorf("%s: configuration rows %v, want two-byte markers only", step.name, rows)
				}
			case "few":
				for i, lt := range rows {
					if extra := lt.Bytes - 2*lt.Msgs; extra <= 0 || extra > fresh.rows[i].Bytes/4 {
						t.Errorf("%s: layer %d re-shipped %d bytes beyond the markers (a full pass is %d)", step.name, lt.Layer, extra, fresh.rows[i].Bytes)
					}
				}
			}
		}
	})
}

// TestConfigureContinuesUnderFaults: the same sequence's unchanged and
// moved Runs on a replicated cluster whose upper replicas drop,
// duplicate and delay messages. Both replicas of a logical rank hold the
// same base, so the markers either one races in mean the same piece, and
// every Run still equals a fresh, fault-free cluster. Delayed copies
// outlive their Run, so what an unchanged Run shipped is read from the
// receivers: every layer of every rank kept its unions, which it does
// only when every piece it took was a marker.
func TestConfigureContinuesUnderFaults(t *testing.T) {
	gens := baseGenerations(t)
	m := len(gens["sets"])
	plan := kylix.FaultPlan{Seed: 27, Faulty: []int{8, 9, 10, 11, 12, 13, 14, 15},
		Drop: 0.1, Duplicate: 0.15, Delay: 0.25, MaxDelay: 2 * time.Millisecond}
	baseMatrix(t, gens, func(t *testing.T, opts []kylix.Option, want map[string]baseFresh, entry func(*kylix.Cluster) func(func(*kylix.Node) error) error) {
		c, err := kylix.NewCluster(2*m, append(opts, kylix.WithReplication(2), kylix.WithFaults(plan),
			kylix.WithRecvTimeout(15*time.Second), kylix.WithObservability())...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		run := entry(c)
		fast, full := c.Metrics().Counter("reconfigure_fast_layers"), c.Metrics().Counter("reconfigure_full_layers")
		for i, gen := range []string{"sets", "sets", "moved", "moved"} {
			kept, rebuilt := fast.Value(), full.Value()
			got, err := baseRun(run, gens[gen], false)
			if err != nil {
				t.Fatalf("Run %d: %v", i, err)
			}
			want[gen].check(t, fmt.Sprintf("Run %d (%s)", i, gen), got)
			kept, rebuilt = fast.Value()-kept, full.Value()-rebuilt
			if i%2 == 1 && (kept != 2*2*int64(m) || rebuilt != 0) {
				t.Errorf("Run %d repeats Run %d's sets, but %d layers kept their unions and %d were rebuilt, want all %d kept", i, i-1, kept, rebuilt, 2*2*m)
			}
		}
		if st := c.Faults().Stats(); st.Dropped == 0 || st.Duplicated == 0 || st.Delayed == 0 {
			t.Fatalf("fault plan never engaged: %+v", st)
		}
	})
}

// TestConfigureStartsFreshWithinAMachine: a Configure continues only
// from a base an earlier Machine left, never from a Config of its own
// Machine — a later Configure in the same Run, or any on a ListenNode
// node. A pass can fail on one rank only (here Strict coverage, which
// only the rank owning the orphan index fails), leaving that rank's base
// poisoned and its peers' standing; markers shipped against those would
// stand for nothing there. So the corrected Configure that follows
// succeeds on every rank, twice, without reconfiguring a layer, and int8
// Reduces interleaved on the two live Reductions, in an order that puts
// each on both arena generations, give exactly what each gives on a
// cluster of its own: they share no residual slab.
func TestConfigureStartsFreshWithinAMachine(t *testing.T) {
	const m = 4
	sets := zipfSets(t, m, 4096, 256)
	orphan := int32(4095)
	for slices.ContainsFunc(sets, func(set []int32) bool { return slices.Contains(set, orphan) }) {
		orphan--
	}
	opts := []kylix.Option{kylix.WithDegrees(2, 2), kylix.WithQuantization(kylix.QuantINT8)}
	schedule := []int{0, 0, 1, 0, 1, 1, 0} // which Reduction reduces next
	// alone[k] is every rank's result digests for Reduction k's value
	// sequence on a cluster of its own.
	var alone [2][][]uint64
	for k := range alone {
		rounds := 0
		for _, s := range schedule {
			if s == k {
				rounds++
			}
		}
		c, err := kylix.NewCluster(m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		alone[k] = make([][]uint64, m)
		err = c.Run(func(node *kylix.Node) error {
			q := node.Rank()
			red, err := node.Configure(sets[q], sets[q])
			for i := 0; i < rounds && err == nil; i++ {
				var res []float32
				res, err = red.Reduce(baseVals(sets[q], q+k*m, i))
				alone[k][q] = append(alone[k][q], kylix.ValuesDigest(res))
			}
			return err
		})
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	opts = append(opts, kylix.WithStrict(), kylix.WithObservability(), kylix.WithRecvTimeout(10*time.Second))
	got := make([][2][]uint64, m)
	failed := make([]bool, m)
	body := func(node *kylix.Node) error {
		q := node.Rank()
		in := sets[q]
		if q == 0 {
			in = append(slices.Clone(in), orphan)
		}
		_, err := node.Configure(in, sets[q])
		failed[q] = err != nil
		var reds [2]*kylix.Reduction
		for k := range reds {
			if reds[k], err = node.Configure(sets[q], sets[q]); err != nil {
				return fmt.Errorf("corrected Configure %d: %w", k+1, err)
			}
		}
		got[q] = [2][]uint64{}
		for _, k := range schedule {
			res, err := reds[k].Reduce(baseVals(sets[q], q+k*m, len(got[q][k])))
			if err != nil {
				return err
			}
			got[q][k] = append(got[q][k], kylix.ValuesDigest(res))
		}
		return nil
	}
	check := func(t *testing.T, regs ...*kylix.MetricsRegistry) {
		if n := len(slices.DeleteFunc(slices.Clone(failed), func(f bool) bool { return !f })); n != 1 {
			t.Fatalf("the Strict Configure failed on %d ranks, want exactly 1", n)
		}
		for _, reg := range regs {
			if n := reg.Counter("reconfigure_fast_layers").Value() + reg.Counter("reconfigure_full_layers").Value(); n != 0 {
				t.Errorf("%d layers were reconfigured: a Configure continued a Config of its own Machine", n)
			}
		}
		for q := range got {
			for k := range got[q] {
				if fmt.Sprint(got[q][k]) != fmt.Sprint(alone[k][q]) {
					t.Errorf("rank %d Reduction %d: interleaved results %x, on a cluster of its own %x", q, k+1, got[q][k], alone[k][q])
				}
			}
		}
	}

	t.Run("cluster-run", func(t *testing.T) {
		c, err := kylix.NewCluster(m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Run(body); err != nil {
			t.Fatal(err)
		}
		check(t, c.Metrics())
	})
	t.Run("listen-node", func(t *testing.T) {
		addrs, err := reservePorts(m)
		if err != nil {
			t.Skip("cannot reserve ports:", err)
		}
		nodes := make([]*kylix.Node, m)
		regs := make([]*kylix.MetricsRegistry, m)
		for r := range nodes {
			if nodes[r], err = kylix.ListenNode(r, addrs, opts...); err != nil {
				t.Fatal(err)
			}
			defer nodes[r].Close()
			regs[r] = nodes[r].Metrics()
		}
		errs := make([]error, m)
		var wg sync.WaitGroup
		for r, node := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = body(node)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		check(t, regs...)
	})
}

// TestCloseReleasesMachineMemory: a namespace keeps its ranks' machine
// memory — the arena slabs and the base — between Runs and lets it go
// when it closes: a Stream at Stream.Close, the default namespace at
// Cluster.Close, however long the caller keeps the handle.
func TestCloseReleasesMachineMemory(t *testing.T) {
	const m = 4
	sets := zipfSets(t, m, 2048, 128)
	c, err := kylix.NewCluster(m, kylix.WithDegrees(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(func(*kylix.Node) error) error{c.Run, st.Run} {
		if _, err := baseRun(run, sets, false); err != nil {
			t.Fatal(err)
		}
	}
	if c.HeldScratch() != m || st.HeldScratch() != m || c.HeldSets() != m || st.HeldSets() != m {
		t.Fatalf("after a Run each: cluster holds %d ranks' memory and %d ranks' sets, stream %d and %d, want %d each",
			c.HeldScratch(), c.HeldSets(), st.HeldScratch(), st.HeldSets(), m)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st.HeldScratch() != 0 || st.HeldSets() != 0 || c.HeldScratch() != m || c.HeldSets() != m {
		t.Fatalf("after Stream.Close: stream holds %d ranks' memory and %d ranks' sets, cluster %d and %d",
			st.HeldScratch(), st.HeldSets(), c.HeldScratch(), c.HeldSets())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.HeldScratch() != 0 || c.HeldSets() != 0 {
		t.Fatalf("after Cluster.Close the cluster holds %d ranks' memory and %d ranks' sets", c.HeldScratch(), c.HeldSets())
	}
}

// TestStreamRunKeepsItsPreparedSets: a Stream.Run whose lists are
// element-equal to the last Run's, in new slices, configures from the
// very Sets that Run prepared, so core's whole-set checks against the
// base alias in O(1). The key is the lists' content, not their slices:
// the same slices rewritten in place (here two positions swapped, the
// same Set in another order) get Sets of their own.
func TestStreamRunKeepsItsPreparedSets(t *testing.T) {
	// Retired Sets are poisoned: one the entry still holds would no longer
	// match the lists it was made from.
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	const m = 4
	c, err := kylix.NewCluster(m, kylix.WithDegrees(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	configure := func(lists [][]int32) []*sparse.Key {
		data := make([]*sparse.Key, m)
		if err := st.Run(func(node *kylix.Node) error {
			red, err := node.Configure(lists[node.Rank()], lists[node.Rank()])
			if err == nil {
				data[node.Rank()] = red.InSetData()
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return data
	}
	lists := zipfSets(t, m, 2048, 128)
	first := configure(lists)
	lists = cloneSets(lists)
	if again := configure(lists); !slices.Equal(again, first) {
		t.Fatalf("equal lists in new slices got Sets %v, the last Run prepared %v", again, first)
	}
	for _, list := range lists {
		list[0], list[1] = list[1], list[0]
	}
	for q, data := range configure(lists) {
		if data == first[q] {
			t.Fatalf("rank %d: lists rewritten in place got the Set prepared for what they held before", q)
		}
	}
}
