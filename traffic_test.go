package kylix_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"kylix"
)

// pinnedTraffic is the TrafficReport of runPinnedTraffic, captured at
// the last commit that counted traffic in internal/trace (6255d0d):
// every field of every row, the modelled times included. The store has
// since moved; its numbers may not. One encoding has: a symmetric
// configuration piece ships its key block once, so the config+reduce
// rows' encoded bytes fell by one block a message (in ≠ out in the
// config rows). What they model — raw bytes, seconds — is the paper's
// and stayed.
var pinnedTraffic = []kylix.LayerTraffic{
	{Phase: "config", Layer: 1, Msgs: 64, Bytes: 18182, WireBytes: 13669, RawBytes: 131648, MaxNodeRecvBytes: 1246, ModelSec: 0.003301712443},
	{Phase: "config", Layer: 2, Msgs: 64, Bytes: 11994, WireBytes: 8947, RawBytes: 77920, MaxNodeRecvBytes: 820, ModelSec: 0.003297908048},
	{Phase: "reduce", Layer: 1, Msgs: 128, Bytes: 66176, WireBytes: 49840, RawBytes: 66176, MaxNodeRecvBytes: 4800, ModelSec: 0.006829937275},
	{Phase: "reduce", Layer: 2, Msgs: 128, Bytes: 39312, WireBytes: 29240, RawBytes: 39312, MaxNodeRecvBytes: 2720, ModelSec: 0.006827895795},
	{Phase: "gather", Layer: 1, Msgs: 192, Bytes: 99264, WireBytes: 74684, RawBytes: 99264, MaxNodeRecvBytes: 6204, ModelSec: 0.010905345226999999},
	{Phase: "gather", Layer: 2, Msgs: 192, Bytes: 58968, WireBytes: 43940, RawBytes: 58968, MaxNodeRecvBytes: 4012, ModelSec: 0.010902116026},
	{Phase: "config+reduce", Layer: 1, Msgs: 64, Bytes: 41981, WireBytes: 31616, RawBytes: 164672, MaxNodeRecvBytes: 3019, ModelSec: 0.003304041239},
	{Phase: "config+reduce", Layer: 2, Msgs: 64, Bytes: 25429, WireBytes: 18921, RawBytes: 97512, MaxNodeRecvBytes: 1751, ModelSec: 0.003299248148},
}

const (
	pinnedConfigSec = 0.013202909878
	pinnedReduceSec = 0.035465294322999996
)

// runPinnedTraffic runs a fixed-seed program over every traffic phase
// (configure, reduce, gather, fused configure+reduce) on 16 machines
// and returns what was recorded.
func runPinnedTraffic(t *testing.T, opts ...kylix.Option) *kylix.TrafficReport {
	t.Helper()
	const m = 16
	cluster, err := kylix.NewCluster(m, append(opts, kylix.WithDegrees(4, 4), kylix.WithTrace())...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sets := zipfSets(t, m, 4096, 512)
	err = cluster.Run(func(node *kylix.Node) error {
		set := sets[node.Rank()]
		vals := make([]float32, len(set))
		for i := range vals {
			vals[i] = float32(i%7) + 1
		}
		// in != out: ask for the neighbour's set.
		red, err := node.Configure(sets[(node.Rank()+1)%m], set)
		if err != nil {
			return err
		}
		if _, err = red.Reduce(vals); err != nil {
			return err
		}
		red, _, err = node.ConfigureReduce(set, set, vals)
		if err != nil {
			return err
		}
		_, err = red.Reduce(vals)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cluster.Traffic(4)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTrafficReportPinned(t *testing.T) {
	for _, tr := range []kylix.Transport{kylix.TransportMemory, kylix.TransportTCP} {
		rep := runPinnedTraffic(t, kylix.WithTransport(tr))
		if rep.ConfigSec != pinnedConfigSec || rep.ReduceSec != pinnedReduceSec {
			t.Errorf("transport %v: modelled config %v reduce %v, pinned %v %v",
				tr, rep.ConfigSec, rep.ReduceSec, float64(pinnedConfigSec), float64(pinnedReduceSec))
		}
		if fmt.Sprintf("%+v", rep.Layers) != fmt.Sprintf("%+v", pinnedTraffic) {
			t.Errorf("transport %v: report differs from the pinned one:\n%s", tr, rep)
			for _, lt := range rep.Layers {
				t.Logf("%#v,", lt)
			}
		}
	}
}

// TestMetricsBytesAreTheTrafficRows is the single-source proof: with
// both exports on, every byte counter /metrics serves equals the sum
// of the Cluster.Traffic rows it covers — on both transports, with the
// value codec off and on.
func TestMetricsBytesAreTheTrafficRows(t *testing.T) {
	for _, tr := range []kylix.Transport{kylix.TransportMemory, kylix.TransportTCP} {
		for _, q := range []kylix.Quantization{kylix.QuantOff, kylix.QuantINT8} {
			const m = 8
			cluster, err := kylix.NewCluster(m, kylix.WithDegrees(4, 2), kylix.WithTransport(tr),
				kylix.WithQuantization(q), kylix.WithObservability(), kylix.WithTrace())
			if err != nil {
				t.Fatal(err)
			}
			sets := zipfSets(t, m, 2048, 256)
			err = cluster.Run(func(node *kylix.Node) error {
				set := sets[node.Rank()]
				vals := make([]float32, len(set))
				for i := range vals {
					vals[i] = float32(i%5) + 1
				}
				red, _, err := node.ConfigureReduce(set, set, vals)
				if err != nil {
					return err
				}
				if _, err = red.Reduce(vals); err != nil {
					return err
				}
				if err = red.Reconfigure(sets[(node.Rank()+1)%m], set); err != nil {
					return err
				}
				_, err = red.Reduce(vals)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := cluster.Traffic(4)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int64{}
			for _, lt := range rep.Layers {
				want[fmt.Sprintf("bytes_%s_L%d", lt.Phase, lt.Layer)] = lt.Bytes
				group := "values"
				if lt.Phase == kylix.PhaseConfig || lt.Phase == kylix.PhaseConfigReduce {
					group = "config"
				}
				want[group+"_bytes_encoded"] += lt.Bytes
				want[group+"_bytes_raw"] += lt.RawBytes
			}
			got := cluster.Metrics().Snapshot().Counters
			for name, v := range want {
				if v == 0 || got[name] != v {
					t.Errorf("transport %v quant %v: /metrics %s = %d, Traffic rows sum to %d", tr, q, name, got[name], v)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok && strings.HasPrefix(name, "bytes_") {
					t.Errorf("transport %v quant %v: /metrics lists %s, Traffic has no such row", tr, q, name)
				}
			}
			if q != kylix.QuantOff && want["values_bytes_encoded"] >= want["values_bytes_raw"] {
				t.Errorf("transport %v: int8 value bytes %d not below raw %d", tr, want["values_bytes_encoded"], want["values_bytes_raw"])
			}
			cluster.Close()
		}
	}
}

// TestReconfigureIsReadyFromTheFirstCall: a Reduction is ready for
// incremental reconfiguration however it was built. The first
// Reconfigure after Configure, or after ConfigureReduce, with the same
// sets puts nothing but two-byte markers on the wire and leaves the
// routing state where a fresh Configure puts it; with one index moved
// on one rank it re-ships the few pieces that index falls in — not
// none, not most — and again lands on the fresh state. On both
// transports, with every Reduce checked against the dense sum.
func TestReconfigureIsReadyFromTheFirstCall(t *testing.T) {
	const m = 8
	degrees := kylix.WithDegrees(4, 2)
	sets := zipfSets(t, m, 2048, 256)
	held := map[int32]bool{}
	for _, set := range sets {
		for _, idx := range set {
			held[idx] = true
		}
	}
	fresh := int32(2047)
	for held[fresh] {
		fresh--
	}
	moved := slices.Clone(sets)
	moved[3] = append(slices.Clone(sets[3][1:]), fresh)
	valsOf := func(set []int32) []float32 {
		vals := make([]float32, len(set))
		for i := range vals {
			vals[i] = float32(i%5) + 1
		}
		return vals
	}
	// matchesDense checks one rank's result against the dense sum (small
	// integers: exact in float32 in any order).
	matchesDense := func(res []float32, gen [][]int32, r int) bool {
		dense := map[int32]float32{}
		for _, set := range gen {
			for i, v := range valsOf(set) {
				dense[set[i]] += v
			}
		}
		for i, idx := range gen[r] {
			if res[i] != dense[idx] {
				return false
			}
		}
		return len(res) == len(gen[r])
	}
	for _, tr := range []kylix.Transport{kylix.TransportMemory, kylix.TransportTCP} {
		// The ground truth: digests and per-layer configuration bytes of a
		// fresh Configure of each generation.
		want := map[string][]uint64{}
		full := map[int]int64{}
		for name, gen := range map[string][][]int32{"same": sets, "moved": moved} {
			cluster, err := kylix.NewCluster(m, degrees, kylix.WithTransport(tr), kylix.WithTrace())
			if err != nil {
				t.Fatal(err)
			}
			want[name] = make([]uint64, m)
			if err := cluster.Run(func(node *kylix.Node) error {
				red, err := node.Configure(gen[node.Rank()], gen[node.Rank()])
				if err == nil {
					want[name][node.Rank()] = red.ConfigDigest()
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			rep, _ := cluster.Traffic(4)
			for _, lt := range rep.Layers {
				full[lt.Layer] = max(full[lt.Layer], lt.Bytes)
			}
			cluster.Close()
		}
		for _, start := range []string{"Configure", "ConfigureReduce"} {
			cluster, err := kylix.NewCluster(m, degrees, kylix.WithTransport(tr), kylix.WithTrace())
			if err != nil {
				t.Fatal(err)
			}
			// configRows waits until every rank has finished the step, hands
			// rank 0 the configuration traffic recorded since the last call
			// (nil: nothing to check) and clears the record.
			all := newBarrier(m)
			configRows := func(r int, check func(lt kylix.LayerTraffic)) {
				all.wait()
				if r == 0 {
					rep, _ := cluster.Traffic(4)
					rows := 0
					for _, lt := range rep.Layers {
						if check != nil && lt.Phase == kylix.PhaseConfig {
							rows++
							check(lt)
						}
					}
					if check != nil && rows != 2 {
						t.Errorf("%v %s: %d configuration rows, want one per layer", tr, start, rows)
					}
					cluster.ResetTraffic()
				}
				all.wait()
			}
			err = cluster.Run(func(node *kylix.Node) (err error) {
				r := node.Rank()
				note := func(e error) {
					if err == nil {
						err = e
					}
				}
				var red *kylix.Reduction
				if start == "Configure" {
					red, err = node.Configure(sets[r], sets[r])
				} else {
					red, _, err = node.ConfigureReduce(sets[r], sets[r], valsOf(sets[r]))
				}
				if err != nil {
					return err // nobody is at the barrier yet
				}
				configRows(r, nil)
				for _, pass := range []struct {
					name  string
					gen   [][]int32
					check func(lt kylix.LayerTraffic)
				}{
					{"same", sets, func(lt kylix.LayerTraffic) {
						if lt.Bytes != 2*lt.Msgs {
							t.Errorf("%v %s: unchanged Reconfigure put %d bytes in %d layer-%d messages, want 2 each", tr, start, lt.Bytes, lt.Msgs, lt.Layer)
						}
					}},
					{"moved", moved, func(lt kylix.LayerTraffic) {
						if extra := lt.Bytes - 2*lt.Msgs; extra <= 0 || extra > full[lt.Layer]/4 {
							t.Errorf("%v %s: one moved index re-shipped %d bytes beyond the markers at layer %d (a full pass is %d)", tr, start, extra, lt.Layer, full[lt.Layer])
						}
					}},
				} {
					note(red.Reconfigure(pass.gen[r], pass.gen[r]))
					configRows(r, pass.check)
					if got := red.ConfigDigest(); got != want[pass.name][r] {
						t.Errorf("%v %s rank %d: digest %#x after Reconfigure(%s), fresh Configure %#x", tr, start, r, got, pass.name, want[pass.name][r])
					}
					res, rerr := red.Reduce(valsOf(pass.gen[r]))
					note(rerr)
					if rerr == nil && !matchesDense(res, pass.gen, r) {
						t.Errorf("%v %s rank %d: Reduce after Reconfigure(%s) differs from the dense sum", tr, start, r, pass.name)
					}
					configRows(r, nil)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			cluster.Close()
		}
	}
}

// TestListenNodeRejectsTrace: a traffic report needs every rank's
// sends, which one process of a cross-process cluster does not see;
// the option used to be accepted and record nothing.
func TestListenNodeRejectsTrace(t *testing.T) {
	node, err := kylix.ListenNode(0, []string{"127.0.0.1:0"}, kylix.WithTrace())
	if err == nil {
		node.Close()
		t.Fatal("ListenNode accepted WithTrace")
	}
	if !strings.Contains(err.Error(), "in-process Cluster") {
		t.Fatalf("error does not say traffic reports are Cluster-only: %v", err)
	}
}
