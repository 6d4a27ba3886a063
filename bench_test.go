package kylix_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§VII), each delegating to the internal/bench harness that regenerates
// the corresponding result, plus micro-benchmarks of the protocol's hot
// paths. Run with:
//
//	go test -bench=. -benchmem
//
// The per-op wall time of the Figure/Table benchmarks is the local cost
// of regenerating the experiment; the experiment's *content* (modelled
// EC2 seconds, traffic volumes) is printed by cmd/kylix-bench and
// recorded in EXPERIMENTS.md.

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"kylix"
	"kylix/internal/bench"
	"kylix/internal/netsim"
)

func benchScale() bench.Scale {
	return bench.QuickScale()
}

// BenchmarkFigure2PacketSweep regenerates the throughput-vs-packet-size
// curve (the minimum-efficient-packet effect).
func BenchmarkFigure2PacketSweep(b *testing.B) {
	model := netsim.EC2()
	for i := 0; i < b.N; i++ {
		if tab := bench.Figure2(model); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure2Measured sweeps real loopback sockets and reports the
// smallest and largest packet's throughput; scripts/bench.sh --gate
// asserts the rise between them (the minimum-efficient-packet shape),
// which as a wall-clock comparison has no place in go test ./... .
func BenchmarkFigure2Measured(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure2Measured(250 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			row  int
			unit string
		}{{0, "smallpkt-Gbps"}, {len(tab.Rows) - 1, "largepkt-Gbps"}} {
			gbps, err := strconv.ParseFloat(tab.Rows[c.row][1], 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(gbps, c.unit)
		}
	}
}

// BenchmarkFigure4Density regenerates the density-function curves.
func BenchmarkFigure4Density(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := bench.Figure4(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure5LayerVolumes regenerates the per-layer communication
// volume profile (the "Kylix" shape) from a real protocol run.
func BenchmarkFigure5LayerVolumes(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure5(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Topologies regenerates the direct/optimal/binary
// config+reduce timing comparison.
func BenchmarkFigure6Topologies(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure6(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Threads regenerates the thread-count sweep.
func BenchmarkFigure7Threads(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure7(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIFaultTolerance regenerates the replication cost table
// (real runs with killed machines).
func BenchmarkTableIFaultTolerance(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.TableI(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8Systems regenerates the Kylix/PowerGraph-proxy/
// Hadoop-proxy PageRank comparison.
func BenchmarkFigure8Systems(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure8(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9Scaling regenerates the cluster-size scaling study.
func BenchmarkFigure9Scaling(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure9(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDesignSearch regenerates the workflow-vs-exhaustive
// degree-search ablation.
func BenchmarkAblationDesignSearch(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationDesignSearch(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFusedConfigReduce regenerates the fused-vs-separate
// configure+reduce ablation.
func BenchmarkAblationFusedConfigReduce(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationFusedConfigReduce(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPacketRacing regenerates the §V-B racing-gain table.
func BenchmarkAblationPacketRacing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab, err := bench.AblationPacketRacing(); err != nil || len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkAblationJitterDES regenerates the discrete-event jitter
// ablation (layer-count and fan-in effects under latency variance).
func BenchmarkAblationJitterDES(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationJitterDES(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- protocol hot-path micro-benchmarks ---

// benchCluster runs configure once and b.N reduces over an in-process
// cluster, reporting per-allreduce cost.
func benchAllreduce(b *testing.B, machines int, degrees []int, nnzPerNode int, opts ...kylix.Option) {
	opts = append(opts, kylix.WithDegrees(degrees...))
	cluster, err := kylix.NewCluster(machines, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()

	sets := make([][]int32, machines)
	for r := range sets {
		rng := rand.New(rand.NewSource(int64(r)))
		seen := map[int32]bool{}
		for len(sets[r]) < nnzPerNode {
			v := rng.Int31n(int32(nnzPerNode * 8))
			if !seen[v] {
				seen[v] = true
				sets[r] = append(sets[r], v)
			}
		}
	}
	b.ResetTimer()
	err = cluster.Run(func(node *kylix.Node) error {
		set := sets[node.Rank()%len(sets)]
		vals := make([]float32, len(set))
		red, err := node.Configure(set, set)
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if _, err := red.Reduce(vals); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduce8x4x2 measures the paper's optimal 64-machine
// topology end to end (in-process transport).
func BenchmarkAllreduce8x4x2(b *testing.B) {
	benchAllreduce(b, 64, []int{8, 4, 2}, 2048)
}

// BenchmarkAllreduceDirect64 measures the direct all-to-all baseline on
// the same workload.
func BenchmarkAllreduceDirect64(b *testing.B) {
	benchAllreduce(b, 64, []int{64}, 2048)
}

// BenchmarkAllreduceBinary64 measures the binary butterfly baseline.
func BenchmarkAllreduceBinary64(b *testing.B) {
	benchAllreduce(b, 64, []int{2, 2, 2, 2, 2, 2}, 2048)
}

// BenchmarkAllreduceReplicated measures the replication overhead
// (factor 2 over 8x4 on 64 physical machines).
func BenchmarkAllreduceReplicated(b *testing.B) {
	benchAllreduce(b, 64, []int{8, 4}, 2048, kylix.WithReplication(2))
}

// BenchmarkConfigureReduceFused measures the combined configure+reduce
// path used by minibatch workloads (fresh sets each op).
func BenchmarkConfigureReduceFused(b *testing.B) {
	cluster, err := kylix.NewCluster(16, kylix.WithDegrees(4, 4))
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	b.ResetTimer()
	err = cluster.Run(func(node *kylix.Node) error {
		rng := rand.New(rand.NewSource(int64(node.Rank())))
		for i := 0; i < b.N; i++ {
			seen := map[int32]bool{}
			var set []int32
			for len(set) < 256 {
				v := rng.Int31n(4096)
				if !seen[v] {
					seen[v] = true
					set = append(set, v)
				}
			}
			vals := make([]float32, len(set))
			if _, _, err := node.ConfigureReduce(set, set, vals); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduceTCP measures the same collective over real loopback
// TCP sockets.
func BenchmarkAllreduceTCP(b *testing.B) {
	benchAllreduce(b, 8, []int{4, 2}, 2048, kylix.WithTransport(kylix.TransportTCP))
}
