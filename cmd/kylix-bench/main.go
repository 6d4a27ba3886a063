// kylix-bench regenerates every table and figure of the Kylix paper's
// evaluation section (ICPP 2014 §VII) from synthetic power-law workloads
// and the EC2-calibrated network cost model. See EXPERIMENTS.md for the
// paper-vs-reproduction comparison the output feeds.
//
// Usage:
//
//	kylix-bench                  # all experiments at default scale
//	kylix-bench -exp fig6,fig8   # a subset
//	kylix-bench -scale quick     # smaller, faster workloads
//	kylix-bench -measured        # include the real-TCP packet sweep
//	kylix-bench -trace-out t.json  # run a live traced allreduce instead,
//	                               # writing a Chrome trace (chrome://tracing)
//	kylix-bench -metrics-addr :0   # ... and serve /metrics, /trace, /timeline
//	kylix-bench -elastic           # live elastic run: allreduce, a live
//	                               # membership transition, allreduce again
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"kylix"
	"kylix/internal/bench"
	"kylix/internal/netsim"
)

func main() {
	var (
		scaleName   = flag.String("scale", "default", "experiment scale: default or quick")
		exps        = flag.String("exp", "all", "comma-separated experiments: fig2,fig4,fig5,fig6,fig7,fig8,fig9,table1,ablation-design,ablation-fused,ablation-racing,ablation-jitter or all")
		measured    = flag.Bool("measured", false, "also run the real loopback-TCP packet sweep for fig2")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile taken after the experiments to this file")
		traceOut    = flag.String("trace-out", "", "run a live observed allreduce and write its Chrome trace_event JSON here (instead of the modelled experiments)")
		metricsAddr = flag.String("metrics-addr", "", "with the live run: serve /metrics, /trace and /timeline on this address until interrupted")
		elastic     = flag.Bool("elastic", false, "run a live elastic-membership demo: allreduce, a live Join transition, allreduce on the new epoch (epoch metrics on -metrics-addr)")
		quantName   = flag.String("quant", "off", "wire value quantization for the live traced run: off, fp16 or int8")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kylix-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "kylix-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kylix-bench: memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "kylix-bench: memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	var sc bench.Scale
	switch *scaleName {
	case "default":
		sc = bench.DefaultScale()
	case "quick":
		sc = bench.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "kylix-bench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	if *elastic {
		if err := runElastic(sc, *metricsAddr); err != nil {
			fmt.Fprintf(os.Stderr, "kylix-bench: elastic run: %v\n", err)
			os.Exit(1)
		}
		return
	}
	quant, err := kylix.ParseQuantization(*quantName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kylix-bench: %v\n", err)
		os.Exit(1)
	}
	if *traceOut != "" || *metricsAddr != "" {
		if err := runTraced(sc, quant, *traceOut, *metricsAddr); err != nil {
			fmt.Fprintf(os.Stderr, "kylix-bench: traced run: %v\n", err)
			os.Exit(1)
		}
		return
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	type experiment struct {
		name string
		run  func() (*bench.Table, error)
	}
	experiments := []experiment{
		{"fig2", func() (*bench.Table, error) { return bench.Figure2(netsim.EC2()), nil }},
		{"fig4", func() (*bench.Table, error) { return bench.Figure4(), nil }},
		{"fig5", func() (*bench.Table, error) { return bench.Figure5(sc) }},
		{"fig6", func() (*bench.Table, error) { return bench.Figure6(sc) }},
		{"fig7", func() (*bench.Table, error) { return bench.Figure7(sc) }},
		{"table1", func() (*bench.Table, error) { return bench.TableI(sc) }},
		{"fig8", func() (*bench.Table, error) { return bench.Figure8(sc) }},
		{"fig9", func() (*bench.Table, error) { return bench.Figure9(sc) }},
		{"ablation-design", func() (*bench.Table, error) { return bench.AblationDesignSearch(sc) }},
		{"ablation-fused", func() (*bench.Table, error) { return bench.AblationFusedConfigReduce(sc) }},
		{"ablation-racing", bench.AblationPacketRacing},
		{"ablation-jitter", func() (*bench.Table, error) { return bench.AblationJitterDES(sc) }},
	}

	fmt.Printf("kylix-bench: scale=%s (n=%d, machines=%d)\n\n", *scaleName, sc.N, sc.Machines)
	for _, e := range experiments {
		if !all && !want[e.name] {
			continue
		}
		start := time.Now()
		tab, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "kylix-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Print(tab.Render())
		fmt.Printf("   [%s ran in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}

	if *measured && (all || want["fig2"]) {
		tab, err := bench.Figure2Measured(250 * time.Millisecond)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kylix-bench: measured fig2: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(tab.Render())
		fmt.Println()
	}
}

// tracedReduceRounds is how many warm Reduce passes the live traced run
// performs after the fused configure+reduce, so the Chrome trace shows
// several repetitions of the layer profile.
const tracedReduceRounds = 3

// runTraced runs one live, fully observed allreduce at the given scale —
// a power-law (Zipf) workload over a multi-layer butterfly — and exports
// what the observability layer saw: a Chrome trace_event JSON (traceOut),
// the per-phase timeline and a metrics snapshot on stdout, and optionally
// the live HTTP endpoint (metricsAddr). On power-law data the per-layer
// reduce slices in the trace shrink layer by layer — the paper's Figure 5
// "Kylix" traffic profile, visible on a timeline.
func runTraced(sc bench.Scale, quant kylix.Quantization, traceOut, metricsAddr string) error {
	degrees := factorDegrees(sc.Machines)
	opts := []kylix.Option{kylix.WithObservability(), kylix.WithTrace(),
		kylix.WithQuantization(quant)}
	if len(degrees) > 1 {
		opts = append(opts, kylix.WithDegrees(degrees...))
	}
	cluster, err := kylix.NewCluster(sc.Machines, opts...)
	if err != nil {
		return err
	}
	defer func() { _ = cluster.Close() }()

	var srv *kylix.MetricsServer
	if metricsAddr != "" {
		srv, err = kylix.ServeMetrics(metricsAddr, cluster.Observability())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics (also /trace, /timeline)\n", srv.Addr)
	}

	nnz := int(sc.N / 8)
	if nnz < 64 {
		nnz = 64
	}
	fmt.Printf("traced run: m=%d degrees=%v n=%d nnz/node=%d quant=%v (%d reduce rounds)\n",
		sc.Machines, cluster.Degrees(), sc.N, nnz, quant, tracedReduceRounds)
	start := time.Now()
	err = cluster.Run(func(node *kylix.Node) error {
		set := zipfSet(sc.Seed+int64(node.Rank())*7919, sc.N, nnz)
		vals := make([]float32, len(set))
		for i := range vals {
			vals[i] = 1
		}
		red, _, err := node.ConfigureReduce(set, set, vals)
		if err != nil {
			return err
		}
		for r := 0; r < tracedReduceRounds; r++ {
			if _, err := red.Reduce(vals); err != nil {
				return err
			}
		}
		// Exercise the incremental path: one unchanged pass (all two-byte
		// markers, every layer reuses its unions) and one that drops an
		// index on every rank (the pieces it was in re-ship and the layers
		// that receive them rebuild), so the reconfigure counters below
		// have both flavours.
		if err := red.Reconfigure(set, set); err != nil {
			return err
		}
		fewer := set[:len(set)-1]
		if err := red.Reconfigure(fewer, fewer); err != nil {
			return err
		}
		_, err = red.Reduce(vals[:len(fewer)])
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("allreduce complete in %v\n\n", time.Since(start).Round(time.Millisecond))

	o := cluster.Observability()
	if err := o.WriteTimeline(os.Stdout); err != nil {
		return err
	}
	if err := printCompression(cluster, o, "config", "index codec", "config", "config sets", kylix.PhaseConfig, kylix.PhaseConfigReduce); err != nil {
		return err
	}
	reg := o.Registry()
	if fast, full := reg.Counter("reconfigure_fast_layers").Value(), reg.Counter("reconfigure_full_layers").Value(); fast+full > 0 {
		fmt.Printf("reconfigure layers: %d reused unions (fast), %d rebuilt\n", fast, full)
	}
	if err := printCompression(cluster, o, "value", "quantization codec", "values", "value blocks", kylix.PhaseReduce, kylix.PhaseGather); err != nil {
		return err
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := o.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nChrome trace written to %s (load in chrome://tracing)\n", traceOut)
	}
	return nil
}

// runElastic runs a live elastic-membership demonstration: an observed
// allreduce on the initial epoch, a live Join transition that grows the
// membership onto spare machines, and a second allreduce on the new
// epoch's re-derived butterfly. The control plane's epoch metrics
// (epoch_current, epoch_transitions, drain_ns, hb_rtt_ns) are printed
// afterwards and, with -metrics-addr, are visible on /metrics while the
// transition happens.
func runElastic(sc bench.Scale, metricsAddr string) error {
	m := sc.Machines
	const spares = 2
	opts := []kylix.Option{
		kylix.WithObservability(),
		kylix.WithElastic(kylix.ElasticOptions{Spares: spares}),
	}
	if degrees := factorDegrees(m); len(degrees) > 1 {
		opts = append(opts, kylix.WithDegrees(degrees...))
	}
	cluster, err := kylix.NewCluster(m, opts...)
	if err != nil {
		return err
	}
	defer func() { _ = cluster.Close() }()

	if metricsAddr != "" {
		srv, err := kylix.ServeMetrics(metricsAddr, cluster.Observability())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics (epoch gauges update live)\n", srv.Addr)
	}

	nnz := int(sc.N / 8)
	if nnz < 64 {
		nnz = 64
	}
	reduceOnce := func() error {
		return cluster.Run(func(node *kylix.Node) error {
			set := zipfSet(sc.Seed+int64(node.Rank())*7919, sc.N, nnz)
			vals := make([]float32, len(set))
			for i := range vals {
				vals[i] = 1
			}
			red, _, err := node.ConfigureReduce(set, set, vals)
			if err != nil {
				return err
			}
			_, err = red.Reduce(vals)
			return err
		})
	}

	fmt.Printf("elastic run: m=%d spares=%d epoch=%d degrees=%v n=%d nnz/node=%d\n",
		cluster.Size(), spares, cluster.Epoch(), cluster.Degrees(), sc.N, nnz)
	start := time.Now()
	if err := reduceOnce(); err != nil {
		return err
	}
	fmt.Printf("epoch %d allreduce complete in %v\n",
		cluster.Epoch(), time.Since(start).Round(time.Millisecond))

	fmt.Printf("joining spare machines %d, %d ...\n", m, m+1)
	start = time.Now()
	if err := cluster.Join(m, m+1); err != nil {
		return err
	}
	fmt.Printf("transition to epoch %d committed in %v: %d members, degrees=%v\n",
		cluster.Epoch(), time.Since(start).Round(time.Millisecond),
		cluster.Size(), cluster.Degrees())
	start = time.Now()
	if err := reduceOnce(); err != nil {
		return err
	}
	fmt.Printf("epoch %d allreduce complete in %v\n\n",
		cluster.Epoch(), time.Since(start).Round(time.Millisecond))

	snap := cluster.Metrics().Snapshot()
	fmt.Printf("epoch metrics:\n")
	fmt.Printf("  epoch_current        %d\n", snap.Gauges["epoch_current"])
	fmt.Printf("  epoch_transitions    %d\n", snap.Counters["epoch_transitions"])
	fmt.Printf("  epoch_stale_rejected %d\n", snap.Counters["epoch_stale_rejected"])
	drain := snap.Histograms["drain_ns"]
	fmt.Printf("  drain_ns             count=%d p50=%v max=%v\n",
		drain.Count, time.Duration(drain.P50), time.Duration(drain.Max))
	rtt := snap.Histograms["hb_rtt_ns"]
	fmt.Printf("  hb_rtt_ns            count=%d p50=%v p99=%v\n",
		rtt.Count, time.Duration(rtt.P50), time.Duration(rtt.P99))
	return nil
}

// printCompression renders one plane's per-layer encoded-vs-raw
// volume — the configuration phases' index sets under the compressed
// codec against 8 bytes a key, or the reduce and gather value blocks
// under the selected quantization against 4 bytes a float32 — and the
// cluster-wide totals from its <counter>_bytes_* counters.
func printCompression(cluster *kylix.Cluster, o *kylix.Observatory, plane, codec, counter, what string, phases ...kylix.Phase) error {
	rep, err := cluster.Traffic(4)
	if err != nil {
		return err
	}
	fmt.Printf("\n%s wire compression (%s, per layer):\n", plane, codec)
	fmt.Printf("%-14s %5s %14s %14s %7s\n", "phase", "layer", "encodedBytes", "rawBytes", "x")
	for _, lt := range rep.Layers {
		if slices.Contains(phases, lt.Phase) && lt.Layer != 0 && lt.Bytes != 0 {
			fmt.Printf("%-14s %5d %14d %14d %6.2fx\n",
				lt.Phase, lt.Layer, lt.Bytes, lt.RawBytes, float64(lt.RawBytes)/float64(lt.Bytes))
		}
	}
	reg := o.Registry()
	enc := reg.Counter(counter + "_bytes_encoded").Value()
	raw := reg.Counter(counter + "_bytes_raw").Value()
	if enc > 0 {
		fmt.Printf("%s total: encoded %d, raw-equivalent %d (%.2fx smaller)\n",
			what, enc, raw, float64(raw)/float64(enc))
	}
	return nil
}

// zipfSet draws nnz distinct Zipf-distributed indices in [0, n) — the
// power-law feature sets the paper's design analysis assumes.
func zipfSet(seed, n int64, nnz int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.25, 1, uint64(n-1))
	seen := make(map[int32]bool, nnz)
	set := make([]int32, 0, nnz)
	for len(set) < nnz {
		idx := int32(zipf.Uint64())
		if !seen[idx] {
			seen[idx] = true
			set = append(set, idx)
		}
	}
	return set
}

// factorDegrees splits the machine count into a multi-layer butterfly
// degree list (fours first, then twos, then whatever prime is left) so
// the traced run exercises several layers.
func factorDegrees(m int) []int {
	var ds []int
	for m > 1 {
		switch {
		case m%4 == 0 && m > 4:
			ds = append(ds, 4)
			m /= 4
		case m%2 == 0:
			ds = append(ds, 2)
			m /= 2
		default:
			f := 3
			for ; m%f != 0; f += 2 {
			}
			ds = append(ds, f)
			m /= f
		}
	}
	return ds
}
