package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"kylix"
	"kylix/internal/comm"
	"kylix/internal/powerlaw"
)

// workload is one closed-loop allreduce job over the root public API.
type workload struct {
	name     string
	machines int
	degrees  []int
	opts     []kylix.Option
	// tcp: ranks talk over loopback sockets, not in-memory mailboxes.
	// warm: configure once, then every pass is one Reduce (the shape the
	// direct-pass probe can replay). streams: passes are Stream.Run rounds.
	tcp, warm, streams bool
	// loopRanks is how many goroutines pace the loop through the gate:
	// every machine for SPMD loops inside one Cluster.Run, one for a
	// driver that issues Stream.Run rounds.
	loopRanks int
	// warmPasses is how many passes a warm-up must hold at least.
	warmPasses int
	// elems is the in-set rows x width one pass delivers to one node,
	// mean over nodes.
	elems float64
	// loop runs passes on an open cluster until the gate stops it,
	// timing every call into rec and capturing the results verify needs.
	loop func(c *kylix.Cluster, g *gate, rec *recorder) error
	// verify checks the passes the last loop captured against the dense
	// reference and returns how many failed and rank 0's digest of pass 0.
	verify func() (failed int, digest uint64)
	// spansPerPass is how many spans of each phase one node records in
	// one pass (both tenants together on tenants-tcp-8).
	spansPerPass map[comm.Kind]int
	probe        probeInput
}

// sizes scales the workloads; the smoke test shrinks them. warm-tcp-8
// has its own index space: tcpnet keeps the last 4096 frames sent to
// every peer for replay, so at 2^16 indices the process grows by 3.7 MB
// a pass towards 9 GB and pass time never settles; at 2^13 the ring has
// turned over by the end of the warm-up and the window measures the
// steady state of a long job. largeLogN is the large-piece diagnostic.
type sizes struct {
	logN, tcpLogN, largeLogN int
	batches                  int
	// ringPasses is how many warm passes warm-tcp-8 runs before it is
	// measured: 2200 turn tcpnet's per-peer resend ring over (4096
	// frames, two per pass to each layer-1 partner), after which sends
	// reuse evicted buffers.
	ringPasses int
	// probeCalls is how many timed calls a probe's median is taken over.
	probeCalls int
}

var fullSizes = sizes{logN: 16, tcpLogN: 13, largeLogN: 16, batches: 64, ringPasses: 2200, probeCalls: 1000}

// recvTimeout turns a hung collective into a failed run well inside the
// contract's 180 s.
const recvTimeout = 20 * time.Second

var workloadNames = []string{"warm-mem-64", "warm-tcp-8", "minibatch-mem-16", "tenants-tcp-8"}

func buildWorkload(name string, sz sizes, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "warm-mem-64":
		return buildWarm(name, 64, []int{8, 4, 2}, kylix.TransportMemory, 1, sz.logN, rng)
	case "warm-tcp-8":
		w, err := buildWarm(name, 8, []int{4, 2}, kylix.TransportTCP, 4, sz.tcpLogN, rng)
		if err == nil {
			w.warmPasses = sz.ringPasses
		}
		return w, err
	case "minibatch-mem-16":
		return buildMinibatch(name, sz, rng)
	case "tenants-tcp-8":
		return buildTenants(name, sz, rng)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func (w *workload) open(extra ...kylix.Option) (*kylix.Cluster, error) {
	opts := append([]kylix.Option{kylix.WithDegrees(w.degrees...), kylix.WithRecvTimeout(recvTimeout)}, w.opts...)
	return kylix.NewCluster(w.machines, append(opts, extra...)...)
}

func (w *workload) transport() string {
	if w.tcp {
		return "tcp over host loopback"
	}
	return "memory"
}

// nodeSets draws one power-law index set per rank. The program only
// ever sees these sets, in key order.
func nodeSets(ranks int, gen *powerlaw.Generator, rng *rand.Rand) [][]int32 {
	sets := make([][]int32, ranks)
	for r := range sets {
		sets[r] = gen.NodeSet(rng).Indices()
	}
	return sets
}

func generator(n int, density float64) (*powerlaw.Generator, error) {
	return powerlaw.NewGeneratorForDensity(int64(n), 0.8, density)
}

func randomVals(sets [][]int32, width int, rng *rand.Rand) [][]float32 {
	vals := make([][]float32, len(sets))
	for r, set := range sets {
		vals[r] = make([]float32, len(set)*width)
		for i := range vals[r] {
			vals[r][i] = 0.5 + rng.Float32()
		}
	}
	return vals
}

func meanRows(sets [][]int32) float64 {
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	return float64(total) / float64(len(sets))
}

// buildWarm is the PageRank pattern: configure once, then every pass is
// one Reduction.Reduce on every rank. Passes alternate between two
// value buffers so a stale result cannot pass the check.
func buildWarm(name string, machines int, degrees []int, transport kylix.Transport, width, logN int, rng *rand.Rand) (*workload, error) {
	n := 1 << logN
	gen, err := generator(n, 0.21)
	if err != nil {
		return nil, err
	}
	sets := nodeSets(machines, gen, rng)
	vals := [2][][]float32{randomVals(sets, width, rng), randomVals(sets, width, rng)}
	kept := newCapture(machines)
	w := &workload{
		name: name, machines: machines, degrees: degrees, tcp: transport == kylix.TransportTCP, warm: true,
		opts:      []kylix.Option{kylix.WithTransport(transport), kylix.WithWidth(width)},
		loopRanks: machines, elems: meanRows(sets) * float64(width),
		spansPerPass: map[comm.Kind]int{comm.KindReduce: 1, comm.KindGather: 1},
		probe:        probeInput{sets: sets, vals: vals[0], width: width},
	}
	w.loop = func(c *kylix.Cluster, g *gate, rec *recorder) error {
		kept.reset()
		return c.Run(g.guard(func(node *kylix.Node) error {
			r := node.Rank()
			t := time.Now()
			red, err := node.Configure(sets[r], sets[r])
			if err != nil {
				return err
			}
			rec.coldConfigure(time.Since(t))
			for i := 0; ; i++ {
				run, measured := g.enter(i)
				if !run {
					return nil
				}
				t := time.Now()
				res, err := red.Reduce(vals[i&1][r])
				d := time.Since(t)
				if err != nil {
					return err
				}
				rec.pass(r, t, d)
				kept.keep(r, i, measured, res)
			}
		}))
	}
	w.verify = func() (int, uint64) {
		return kept.failed(func(_ int, cp checkedPass) bool {
			dense := denseSum(n, width, sets, vals[cp.pass&1])
			return matches(cp.res, sets, width, dense, tolerance(kylix.QuantOff))
		}), kylix.ValuesDigest(kept.zero[0])
	}
	return w, nil
}

// batch is one rank's minibatch: the step's index set, the same set
// with a tenth of its indices replaced, and one row of values per index.
type batch struct {
	idx, idx2 []int32
	vals      []float32
}

// buildMinibatch is the minibatch-SGD pattern: the index sets change on
// every step, so a pass is ConfigureReduce on a fresh batch, then an
// incremental Reconfigure to a slightly moved batch and one Reduce.
func buildMinibatch(name string, sz sizes, rng *rand.Rand) (*workload, error) {
	const machines = 16
	n := 1 << sz.logN
	rows := n / 32
	// Solving the generator's rate for a density sums over all N
	// features, so it is built once, not per batch.
	gen, err := generator(n, float64(rows)/float64(n))
	if err != nil {
		return nil, err
	}
	batches := make([][]batch, sz.batches) // [batch][rank]
	total := 0
	for k := range batches {
		sets := nodeSets(machines, gen, rng)
		vals := randomVals(sets, 1, rng)
		batches[k] = make([]batch, machines)
		for r, set := range sets {
			batches[k][r] = batch{idx: set, idx2: replaceTenth(set, n, rng), vals: vals[r]}
			total += 2 * len(set)
		}
	}
	column := func(k int, second bool) (sets [][]int32, vals [][]float32) {
		for _, b := range batches[k] {
			set := b.idx
			if second {
				set = b.idx2
			}
			sets, vals = append(sets, set), append(vals, b.vals)
		}
		return sets, vals
	}
	kept1, kept2 := newCapture(machines), newCapture(machines)
	set0, vals0 := column(0, false)
	w := &workload{
		name: name, machines: machines, degrees: []int{4, 4},
		loopRanks: machines, elems: float64(total) / float64(machines*sz.batches),
		spansPerPass: map[comm.Kind]int{comm.KindConfigReduce: 1, comm.KindConfig: 1, comm.KindReduce: 1, comm.KindGather: 2},
		probe:        probeInput{sets: set0, vals: vals0, width: 1},
	}
	w.loop = func(c *kylix.Cluster, g *gate, rec *recorder) error {
		kept1.reset()
		kept2.reset()
		return c.Run(g.guard(func(node *kylix.Node) error {
			r := node.Rank()
			for i := 0; ; i++ {
				run, measured := g.enter(i)
				if !run {
					return nil
				}
				b := &batches[i%len(batches)][r]
				t0 := time.Now()
				red, res1, err := node.ConfigureReduce(b.idx, b.idx, b.vals)
				if err != nil {
					return err
				}
				t1 := time.Now()
				if err := red.Reconfigure(b.idx2, b.idx2); err != nil {
					return err
				}
				t2 := time.Now()
				res2, err := red.Reduce(b.vals)
				t3 := time.Now()
				if err != nil {
					return err
				}
				rec.pass(r, t0, t3.Sub(t0))
				if i == 0 {
					rec.coldConfigure(t1.Sub(t0))
				}
				if r == 0 {
					rec.step("configure_reduce", t1.Sub(t0))
					rec.step("reconfigure", t2.Sub(t1))
					rec.step("reduce_after_reconfig", t3.Sub(t2))
				}
				kept1.keep(r, i, measured, res1)
				kept2.keep(r, i, measured, res2)
			}
		}))
	}
	w.verify = func() (int, uint64) {
		return kept1.failed(func(at int, cp1 checkedPass) bool {
			for second, cp := range []checkedPass{cp1, kept2.checked()[at]} {
				sets, vals := column(cp.pass%len(batches), second == 1)
				if !matches(cp.res, sets, 1, denseSum(n, 1, sets, vals), tolerance(kylix.QuantOff)) {
					return false
				}
			}
			return true
		}), kylix.ValuesDigest(kept2.zero[0])
	}
	return w, nil
}

// replaceTenth returns set with every tenth index swapped for one the
// set does not hold.
func replaceTenth(set []int32, n int, rng *rand.Rand) []int32 {
	have := make(map[int32]bool, len(set))
	for _, idx := range set {
		have[idx] = true
	}
	out := append([]int32(nil), set...)
	for j := 0; j < len(out); j += 10 {
		idx := int32(rng.Intn(n))
		for have[idx] {
			idx = int32(rng.Intn(n))
		}
		have[idx] = true
		out[j] = idx
	}
	return out
}

// tenant is one stream of the multi-tenant workload.
type tenant struct {
	quant kylix.Quantization
	width int
	n     int
	sets  [][]int32
	vals  [][]float32
	kept  *capture
}

// reducesPerRun is the daemon's reduce-command shape: one Configure and
// four Reduce calls per Stream.Run.
const reducesPerRun = 4

// buildTenants is the service shape: two tenants with their own
// quantization, width and sparsity share one TCP cluster, and a pass is
// one round in which both tenants' Stream.Run are in flight together.
func buildTenants(name string, sz sizes, rng *rand.Rand) (*workload, error) {
	const machines = 8
	tenants := []*tenant{
		{quant: kylix.QuantINT8, width: 4, n: 1 << (sz.logN - 2)},
		{quant: kylix.QuantFP16, width: 1, n: 1 << sz.logN},
	}
	densities := []float64{0.21, 0.035}
	elems := 0.0
	for k, tn := range tenants {
		gen, err := generator(tn.n, densities[k])
		if err != nil {
			return nil, err
		}
		tn.sets = nodeSets(machines, gen, rng)
		tn.vals = randomVals(tn.sets, tn.width, rng)
		tn.kept = newCapture(machines)
		elems += reducesPerRun * meanRows(tn.sets) * float64(tn.width)
	}
	a := tenants[0]
	w := &workload{
		name: name, machines: machines, degrees: []int{4, 2}, tcp: true, streams: true,
		opts:      []kylix.Option{kylix.WithTransport(kylix.TransportTCP)},
		loopRanks: 1, elems: elems,
		spansPerPass: map[comm.Kind]int{comm.KindConfig: 2, comm.KindReduce: 2 * reducesPerRun, comm.KindGather: 2 * reducesPerRun},
		probe:        probeInput{sets: a.sets, vals: a.vals, width: a.width, quantized: true},
	}
	w.loop = func(c *kylix.Cluster, g *gate, rec *recorder) (err error) {
		streams := make([]*kylix.Stream, len(tenants))
		for k, tn := range tenants {
			tn.kept.reset()
			st, oerr := c.OpenStream(kylix.WithQuantization(tn.quant), kylix.WithWidth(tn.width))
			if oerr != nil {
				return oerr
			}
			streams[k] = st
			defer func() { err = errors.Join(err, st.Close()) }()
		}
		for i := 0; ; i++ {
			run, measured := g.enter(i)
			if !run {
				return nil
			}
			var wg sync.WaitGroup
			took := make([]time.Duration, len(tenants))
			errs := make([]error, len(tenants))
			var fnNs [machines]int64 // tenant A's per-rank fn durations
			t := time.Now()
			for k, tn := range tenants {
				wg.Add(1)
				go func(k int, tn *tenant) {
					defer wg.Done()
					errs[k] = streams[k].Run(func(node *kylix.Node) error {
						t := time.Now()
						r := node.Rank()
						red, err := node.Configure(tn.sets[r], tn.sets[r])
						if err != nil {
							return err
						}
						if i == 0 {
							rec.coldConfigure(time.Since(t))
						}
						var res []float32
						for j := 0; j < reducesPerRun; j++ {
							if res, err = red.Reduce(tn.vals[r]); err != nil {
								return err
							}
						}
						tn.kept.keep(r, i, measured, res)
						if k == 0 {
							fnNs[r] = int64(time.Since(t))
						}
						return nil
					})
					took[k] = time.Since(t)
				}(k, tn)
			}
			wg.Wait()
			d := time.Since(t)
			if err := errors.Join(errs...); err != nil {
				return err
			}
			rec.pass(0, t, d)
			rec.step("tenant_a", took[0])
			rec.step("tenant_b", took[1])
			lo, hi := fnNs[0], fnNs[0]
			for _, v := range fnNs {
				lo, hi = min(lo, v), max(hi, v)
			}
			rec.step("skew", time.Duration(hi-lo))
		}
	}
	w.verify = func() (int, uint64) {
		return a.kept.failed(func(at int, _ checkedPass) bool {
			for _, tn := range tenants {
				dense := denseSum(tn.n, tn.width, tn.sets, tn.vals)
				if !matches(tn.kept.checked()[at].res, tn.sets, tn.width, dense, tolerance(tn.quant)) {
					return false
				}
			}
			return true
		}), kylix.ValuesDigest(a.kept.zero[0]) ^ kylix.ValuesDigest(tenants[1].kept.zero[0])
	}
	return w, nil
}
