package kylix_test

import (
	"fmt"
	"strings"
	"testing"

	"kylix"
)

// pinnedTraffic is the TrafficReport of runPinnedTraffic, captured at
// the last commit that counted traffic in internal/trace (6255d0d):
// every field of every row, the modelled times included. The store has
// since moved; its numbers may not.
var pinnedTraffic = []kylix.LayerTraffic{
	{Phase: "config", Layer: 1, Msgs: 64, Bytes: 18182, WireBytes: 13669, RawBytes: 131648, MaxNodeRecvBytes: 1246, ModelSec: 0.003301712443},
	{Phase: "config", Layer: 2, Msgs: 64, Bytes: 11994, WireBytes: 8947, RawBytes: 77920, MaxNodeRecvBytes: 820, ModelSec: 0.003297908048},
	{Phase: "reduce", Layer: 1, Msgs: 128, Bytes: 66176, WireBytes: 49840, RawBytes: 66176, MaxNodeRecvBytes: 4800, ModelSec: 0.006829937275},
	{Phase: "reduce", Layer: 2, Msgs: 128, Bytes: 39312, WireBytes: 29240, RawBytes: 39312, MaxNodeRecvBytes: 2720, ModelSec: 0.006827895795},
	{Phase: "gather", Layer: 1, Msgs: 192, Bytes: 99264, WireBytes: 74684, RawBytes: 99264, MaxNodeRecvBytes: 6204, ModelSec: 0.010905345226999999},
	{Phase: "gather", Layer: 2, Msgs: 192, Bytes: 58968, WireBytes: 43940, RawBytes: 58968, MaxNodeRecvBytes: 4012, ModelSec: 0.010902116026},
	{Phase: "config+reduce", Layer: 1, Msgs: 64, Bytes: 51040, WireBytes: 38436, RawBytes: 164672, MaxNodeRecvBytes: 3646, ModelSec: 0.003304041239},
	{Phase: "config+reduce", Layer: 2, Msgs: 64, Bytes: 31394, WireBytes: 23366, RawBytes: 97512, MaxNodeRecvBytes: 2154, ModelSec: 0.003299248148},
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
