// kylix-node is one machine of a real multi-process Kylix cluster over
// TCP. Every participating process runs it with the same -hosts list and
// its own -rank; the cluster then executes a verifiable sparse-sum
// allreduce demo (or distributed PageRank with -workload pagerank) and
// prints a result digest that must agree across all ranks.
//
// Local 4-process example (or just use cmd/kylix-run):
//
//	kylix-node -rank 0 -hosts 127.0.0.1:7000,127.0.0.1:7001 &
//	kylix-node -rank 1 -hosts 127.0.0.1:7000,127.0.0.1:7001
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"kylix"
	"kylix/internal/graph"
)

func main() {
	var (
		rank        = flag.Int("rank", -1, "this process's rank in the host list")
		hosts       = flag.String("hosts", "", "comma-separated host:port list, one per rank")
		degrees     = flag.String("degrees", "", "butterfly degrees like 4x2 (default: direct)")
		workload    = flag.String("workload", "allreduce", "allreduce or pagerank")
		n           = flag.Int64("n", 1<<16, "feature/vertex space size")
		nnz         = flag.Int("nnz", 1<<14, "per-node nonzeros (allreduce) or total edges (pagerank)")
		iters       = flag.Int("iters", 3, "pagerank iterations")
		seed        = flag.Int64("seed", 42, "shared workload seed (must match across ranks)")
		timeout     = flag.Duration("timeout", 60*time.Second, "receive timeout")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /trace and /timeline over HTTP on this address (enables observability)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON of this rank's run to the file (enables observability)")
	)
	flag.Parse()

	addrs := strings.Split(*hosts, ",")
	if *rank < 0 || *rank >= len(addrs) || *hosts == "" {
		fmt.Fprintln(os.Stderr, "kylix-node: need -rank within -hosts list")
		os.Exit(2)
	}
	opts := []kylix.Option{kylix.WithRecvTimeout(*timeout)}
	if *metricsAddr != "" || *traceOut != "" {
		opts = append(opts, kylix.WithObservability())
	}
	if *degrees != "" {
		var ds []int
		for _, part := range strings.Split(*degrees, "x") {
			d, err := strconv.Atoi(part)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kylix-node: bad -degrees %q\n", *degrees)
				os.Exit(2)
			}
			ds = append(ds, d)
		}
		opts = append(opts, kylix.WithDegrees(ds...))
	}

	node, err := kylix.ListenNode(*rank, addrs, opts...)
	if err != nil {
		fatal(err)
	}
	defer node.Close()

	if *metricsAddr != "" {
		srv, err := kylix.ServeMetrics(*metricsAddr, node.Observability())
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("rank %d: metrics on http://%s/metrics (also /trace, /timeline)\n", *rank, srv.Addr)
	}

	switch *workload {
	case "allreduce":
		runAllreduce(node, *n, *nnz, *seed)
	case "pagerank":
		runPagerank(node, *n, *nnz, *iters, *seed)
	default:
		fmt.Fprintf(os.Stderr, "kylix-node: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := node.Observability().WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("rank %d: trace written to %s (load in chrome://tracing)\n", *rank, *traceOut)
	}
}

// runAllreduce performs one verifiable random sparse-sum allreduce: each
// rank contributes value (rank+1) on a deterministic random index set,
// so every gathered value is checkable locally against a recomputation
// of the other ranks' sets.
func runAllreduce(node *kylix.Node, n int64, nnz int, seed int64) {
	mySet := nodeSet(node.Rank(), n, nnz, seed)
	vals := make([]float32, len(mySet))
	for i := range vals {
		vals[i] = float32(node.Rank() + 1)
	}
	start := time.Now()
	red, got, err := node.ConfigureReduce(mySet, mySet, vals)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	_ = red

	// Verify against a local recomputation of everyone's sets.
	want := map[int32]float32{}
	for r := 0; r < node.Size(); r++ {
		for _, idx := range nodeSet(r, n, nnz, seed) {
			want[idx] += float32(r + 1)
		}
	}
	var digest float64
	for i, idx := range mySet {
		if math.Abs(float64(got[i]-want[idx])) > 1e-3 {
			fatal(fmt.Errorf("verification failed at index %d: got %f want %f", idx, got[i], want[idx]))
		}
		digest += float64(got[i])
	}
	fmt.Printf("rank %d: allreduce of %d indices OK in %v, digest %.3f\n",
		node.Rank(), len(mySet), elapsed.Round(time.Millisecond), digest)
}

// runPagerank runs a small distributed PageRank over TCP: all ranks
// generate the same graph from the seed and take their rank-th edge
// partition.
func runPagerank(node *kylix.Node, n int64, edges, iters int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	all := graph.GenPowerLaw(rng, n, edges, 0.8, 0.8)
	parts := graph.PartitionEdges(rng, all, node.Size())
	deg := graph.OutDegrees(n, all)
	mine := parts[node.Rank()]
	shard, err := graph.BuildShard(mine, graph.PageRankWeights(mine, deg))
	if err != nil {
		fatal(err)
	}

	in := shard.In.Indices()
	out := shard.Out.Indices()
	red, err := node.Configure(in, out)
	if err != nil {
		fatal(err)
	}
	x := make([]float32, len(in))
	for i := range x {
		x[i] = 1 / float32(n)
	}
	y := make([]float32, len(out))
	start := time.Now()
	for it := 0; it < iters; it++ {
		if err := shard.Multiply(x, y); err != nil {
			fatal(err)
		}
		gathered, err := red.Reduce(y)
		if err != nil {
			fatal(err)
		}
		base := (1 - 0.85) / float32(n)
		for i := range x {
			x[i] = base + 0.85*gathered[i]
		}
	}
	var digest float64
	for _, v := range x {
		digest += float64(v)
	}
	fmt.Printf("rank %d: pagerank %d iters over %d local edges in %v, digest %.6f\n",
		node.Rank(), iters, shard.NNZ(), time.Since(start).Round(time.Millisecond), digest)
}

// nodeSet derives rank r's deterministic index set.
func nodeSet(r int, n int64, nnz int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed + int64(r)*104729))
	seen := make(map[int32]bool, nnz)
	set := make([]int32, 0, nnz)
	for len(set) < nnz {
		idx := int32(rng.Int63n(n))
		if !seen[idx] {
			seen[idx] = true
			set = append(set, idx)
		}
	}
	return set
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kylix-node:", err)
	os.Exit(1)
}
