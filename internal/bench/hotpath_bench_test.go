package bench

import (
	"sync"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/memnet"
	"kylix/internal/obs"
	"kylix/internal/sparse"
	"kylix/internal/tcpnet"
	"kylix/internal/topo"
)

// BenchmarkReduceWarmQuick is the hot-path gate benchmark: repeated
// Config.Reduce rounds on a warm (already configured, arena-populated)
// config at QuickScale — the paper's 64-machine optimal topology over a
// twitter-like power-law workload. One op is one full collective round
// across all machines. scripts/bench.sh fails the PR gate if this
// benchmark reports any allocs/op: the steady-state reduction must run
// entirely from the per-Config scratch arena.
func BenchmarkReduceWarmQuick(b *testing.B) {
	benchReduceWarm(b, nil)
}

// BenchmarkReduceWarmObs is the same gate with the full observability
// layer live: per-layer span tracing on every machine and the receive
// observer installed on every mailbox. It must also report 0 allocs/op —
// the spans are stack values and the observer only touches preallocated
// atomics, so turning observability on must not cost the hot path its
// allocation-free property.
func BenchmarkReduceWarmObs(b *testing.B) {
	benchReduceWarm(b, obs.New(QuickScale().Machines, 0))
}

// BenchmarkReduceWarmW4 is a warm width-4 reduction over a two-layer
// butterfly with large layer pieces, run with full observability; it
// must stay allocation-free.
func BenchmarkReduceWarmW4(b *testing.B) {
	benchReduceWarmW4(b, 1<<17, false)
}

// BenchmarkReduceWarmTCP is the allocation gate where every remote value
// block crosses a loopback socket: the W4 shape at the repo benchmark's
// warm-tcp-8 size. The send windows recycle their frames and the receive
// pools the buffers frames are decoded into, handed back by the fold and
// the landing, so this too must report 0 allocs/op.
func BenchmarkReduceWarmTCP(b *testing.B) {
	benchReduceWarmW4(b, 1<<13, true)
}

func benchReduceWarmW4(b *testing.B, n int64, tcp bool) {
	const (
		machines = 8
		width    = 4
	)
	o := obs.New(machines, 0)
	p := twitterProfile()
	w, err := genWorkload(p, n, machines, QuickScale().Seed)
	if err != nil {
		b.Fatal(err)
	}
	// Two layers (not scaleDegrees' single 8) so layer pieces stay large:
	// a piece is ~set/4 rows.
	bf := topo.MustNew([]int{4, 2})

	var endpoint func(q int) comm.Endpoint
	if tcp {
		nodes, err := tcpnet.LocalCluster(machines, tcpnet.Options{Observer: o.Observer, Metrics: o.Transport()})
		if err != nil {
			b.Fatal(err)
		}
		defer tcpnet.CloseAll(nodes)
		endpoint = func(q int) comm.Endpoint { return nodes[q] }
	} else {
		net := memnet.New(machines, memnet.WithObserver(o.Observer))
		defer net.Close()
		endpoint = net.Endpoint
	}

	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(machines)
	done.Add(machines)
	errs := make([]error, machines)
	for q := 0; q < machines; q++ {
		go func(q int) {
			defer done.Done()
			fail := func(err error) {
				errs[q] = err
				ready.Done()
			}
			m, err := core.NewMachine(endpoint(q), bf, core.Options{
				Width:  width,
				Tracer: o.Node(q),
			})
			if err != nil {
				fail(err)
				return
			}
			set := w.sets[q]
			vals := make([]float32, len(set)*width)
			for j := range vals {
				vals[j] = w.vals[q][j/width]
			}
			cfg, err := m.Configure(set, set)
			if err != nil {
				fail(err)
				return
			}
			for r := 0; r < 2; r++ {
				if _, err := cfg.Reduce(vals); err != nil {
					fail(err)
					return
				}
			}
			ready.Done()
			<-start
			for i := 0; i < b.N; i++ {
				if _, err := cfg.Reduce(vals); err != nil {
					errs[q] = err
					return
				}
			}
		}(q)
	}
	ready.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	close(start)
	done.Wait()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceWarmFP16 and BenchmarkReduceWarmINT8 are the wire
// quantization gates: a warm power-law (Zipf-profile) reduction with
// the value codec on. Both must stay 0 allocs/op — quantize/dequantize
// run entirely from the preallocated QVals arena and landing buffers —
// and both report the value-plane wire accounting: valbytes/op
// (encoded bytes per collective round), rawvalbytes/op (the float32
// equivalent), and valx (their ratio, the payload-bytes reduction
// scripts/bench.sh gates at >=1.7x for fp16). They run at a 16-machine
// scale: on the in-memory transport quantization adds encode compute
// without removing any wire time, so the 64-machine op is slow enough
// that fixture noise (mailbox tag-index growth, stack growth) stops
// amortizing to 0 allocs/op within the bench time; the ratio is
// workload-shape-, not size-, dependent.
func BenchmarkReduceWarmFP16(b *testing.B) {
	benchReduceWarmQuant(b, obs.New(quantScale().Machines, 0), sparse.QuantFP16, quantScale())
}

func BenchmarkReduceWarmINT8(b *testing.B) {
	benchReduceWarmQuant(b, obs.New(quantScale().Machines, 0), sparse.QuantINT8, quantScale())
}

func quantScale() Scale {
	return Scale{N: 1 << 11, Machines: 16, EdgesPerVertex: 8, PageRankIters: 2, Seed: 20140901}
}

func benchReduceWarm(b *testing.B, o *obs.Observatory) {
	benchReduceWarmQuant(b, o, sparse.QuantOff, QuickScale())
}

func benchReduceWarmQuant(b *testing.B, o *obs.Observatory, quant sparse.Quantization, sc Scale) {
	p := twitterProfile()
	w, err := genWorkload(p, sc.N, sc.Machines, sc.Seed)
	if err != nil {
		b.Fatal(err)
	}
	bf := topo.MustNew(scaleDegrees(p.degrees, sc.Machines))

	net := memnet.New(sc.Machines, memnet.WithObserver(o.Observer))
	defer net.Close()

	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(sc.Machines)
	done.Add(sc.Machines)
	errs := make([]error, sc.Machines)
	for q := 0; q < sc.Machines; q++ {
		go func(q int) {
			defer done.Done()
			fail := func(err error) {
				errs[q] = err
				ready.Done()
			}
			m, err := core.NewMachine(net.Endpoint(q), bf, core.Options{Tracer: o.Node(q), Quant: quant})
			if err != nil {
				fail(err)
				return
			}
			cfg, err := m.Configure(w.sets[q], w.sets[q])
			if err != nil {
				fail(err)
				return
			}
			// Warm both scratch-arena generations before the timed loop.
			for r := 0; r < 2; r++ {
				if _, err := cfg.Reduce(w.vals[q]); err != nil {
					fail(err)
					return
				}
			}
			ready.Done()
			<-start
			for i := 0; i < b.N; i++ {
				if _, err := cfg.Reduce(w.vals[q]); err != nil {
					errs[q] = err
					return
				}
			}
		}(q)
	}
	ready.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	var enc0, raw0 int64
	if o != nil {
		enc0 = o.Registry().Counter("values_bytes_encoded").Value()
		raw0 = o.Registry().Counter("values_bytes_raw").Value()
	}
	b.ReportAllocs()
	b.ResetTimer()
	close(start)
	done.Wait()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	if o != nil && quant != sparse.QuantOff {
		enc := o.Registry().Counter("values_bytes_encoded").Value() - enc0
		raw := o.Registry().Counter("values_bytes_raw").Value() - raw0
		b.ReportMetric(float64(enc)/float64(b.N), "valbytes/op")
		b.ReportMetric(float64(raw)/float64(b.N), "rawvalbytes/op")
		b.ReportMetric(float64(raw)/float64(enc), "valx")
	}
}
