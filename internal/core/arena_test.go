package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"kylix/internal/comm"
	"kylix/internal/faultnet"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// arenaStep is one collective of the interleaving schedule: the Config
// it runs on and what it does there.
type arenaStep struct {
	cfg int
	op  string // configure, fused, reduce, reconfigure
}

// arenaSchedule interleaves four Configs of growing sizes on one
// Machine: 0 is small, 1 medium and born in a fused pass, 2 large and
// configured only after both arena generations have been carved, 3 the
// largest and configured late, so the result slabs and both one-copy
// slabs are replaced mid-sequence while pieces of the old ones may still
// be in flight by reference. Configuration-only passes (a plain
// Configure, a Reconfigure that moves config 1 to other sets) sit
// between arena passes.
var arenaSchedule = []arenaStep{
	{0, "configure"}, {1, "fused"}, {0, "reduce"}, {1, "reduce"}, {0, "reduce"},
	{2, "configure"},
	{1, "reduce"}, {2, "reduce"}, {0, "reduce"}, {2, "reduce"},
	{1, "reconfigure"},
	{1, "reduce"}, {0, "reduce"}, {2, "reduce"}, {1, "reduce"}, {0, "reduce"}, {0, "reduce"}, {2, "reduce"},
	{3, "configure"},
	{1, "reduce"}, {3, "reduce"}, {0, "reduce"}, {3, "reduce"}, {2, "reduce"}, {3, "reduce"}, {1, "reduce"},
}

// runArenaSchedule runs the schedule's steps on one Machine — all of
// them, or with only >= 0 just that Config's — and returns one digest
// per step: the routing state's after a configuration step, the reduced
// values' after a reduction. ws[c] is Config c's workload, ws[4] the one
// Config 1 is reconfigured to.
func runArenaSchedule(ep comm.Endpoint, bf *topo.Butterfly, opts Options, ws [5][]workload, only int) ([]uint64, error) {
	m, err := NewMachine(ep, bf, opts)
	if err != nil {
		return nil, err
	}
	r := ep.Rank()
	var cfgs [4]*Config
	cur := [4]workload{ws[0][r], ws[1][r], ws[2][r], ws[3][r]}
	digests := make([]uint64, len(arenaSchedule))
	for k, st := range arenaSchedule {
		if only >= 0 && st.cfg != only {
			continue
		}
		w := cur[st.cfg]
		vals := make([]float32, len(w.vals)) // every step reduces other values
		for i, v := range w.vals {
			vals[i] = v * (1 + float32(k)/8)
		}
		var res []float32
		switch st.op {
		case "configure":
			cfgs[st.cfg], err = m.Configure(w.in, w.out)
		case "fused":
			cfgs[st.cfg], res, err = m.ConfigureReduce(w.in, w.out, vals)
		case "reconfigure":
			cur[st.cfg] = ws[4][r]
			err = cfgs[st.cfg].Reconfigure(ws[4][r].in, ws[4][r].out)
		case "reduce":
			res, err = cfgs[st.cfg].Reduce(vals)
		}
		if err != nil {
			return nil, fmt.Errorf("step %d (%s on config %d): %w", k, st.op, st.cfg, err)
		}
		if digests[k] = sparse.ValuesDigest(res); res == nil {
			digests[k] = cfgs[st.cfg].Digest()
		}
	}
	return digests, nil
}

// TestInterleavedConfigsShareOneArena is the machine-level lifetime
// argument under test: Configs of different sizes reduced round-robin
// on one Machine — so every pass carves the arena anew, over memory that
// held another Config's pieces the pass before, poisoned at the earliest
// point the argument allows — must give, bit for bit, what each gives
// alone on a Machine of its own. It runs over memnet under a
// delay+duplicate plan, where every piece travels by reference and
// stragglers outlive their pass, and over loopback sockets, raw and
// quantized.
func TestInterleavedConfigsShareOneArena(t *testing.T) {
	PoisonArena(true)
	defer PoisonArena(false)
	bf := topo.MustNew([]int{4, 2})
	const width = 2
	rng := rand.New(rand.NewSource(811))
	var ws [5][]workload
	for c, avg := range []int{12, 40, 90, 150, 25} {
		ws[c] = randWorkloads(rng, bf.M(), 600, avg, width, true)
	}
	for _, quant := range []sparse.Quantization{sparse.QuantOff, sparse.QuantFP16, sparse.QuantINT8} {
		opts := Options{Width: width, Quant: quant}
		// Each Config alone, on its own Machines over a quiet network.
		alone := make([][]uint64, bf.M())
		for only := 0; only < 4; only++ {
			runOnTransport(t, false, bf.M(), func(ep comm.Endpoint) error {
				ds, err := runArenaSchedule(ep, bf, opts, ws, only)
				if alone[ep.Rank()] == nil {
					alone[ep.Rank()] = make([]uint64, len(arenaSchedule))
				}
				for k, d := range ds {
					alone[ep.Rank()][k] |= d // steps of other Configs are 0
				}
				return err
			})
		}
		for _, transport := range []string{"memnet+faults", "tcp"} {
			t.Run(fmt.Sprintf("%v/%s", quant, transport), func(t *testing.T) {
				got := make([][]uint64, bf.M())
				body := func(ep comm.Endpoint) (err error) {
					got[ep.Rank()], err = runArenaSchedule(ep, bf, opts, ws, -1)
					return err
				}
				if transport == "tcp" {
					runOnTransport(t, true, bf.M(), body)
				} else {
					fab, err := faultnet.New(faultnet.Plan{Seed: 811, Delay: 0.4, MaxDelay: 2 * time.Millisecond, Duplicate: 0.3})
					if err != nil {
						t.Fatal(err)
					}
					fab.InitSize(bf.M())
					runOnTransport(t, false, bf.M(), func(ep comm.Endpoint) error { return body(fab.Wrap(ep)) })
					fab.Close()
					if st := fab.Stats(); st.Delayed == 0 || st.Duplicated == 0 {
						t.Fatalf("fault plan never engaged: %+v", st)
					}
				}
				for r := range got {
					for k, st := range arenaSchedule {
						if got[r][k] != alone[r][k] {
							t.Fatalf("rank %d step %d (%s on config %d): digest %#x interleaved, %#x alone",
								r, k, st.op, st.cfg, got[r][k], alone[r][k])
						}
					}
				}
			})
		}
	}
}

// TestScratchOutlivesItsMachine: a Machine kept from one run of passes
// to the next, and Reset in between, keeps its slabs — the later run's
// passes allocate no arena — and when the topology moves, the Machine
// built for the new one shapes its own Scratch instead of carving one of
// the wrong shape.
func TestScratchOutlivesItsMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	bf, other := topo.MustNew([]int{2, 2}), topo.MustNew([]int{4})
	ws := randWorkloads(rng, bf.M(), 300, 40, 1, true)
	want := refReduce(ws, sparse.Sum, 1)
	n := memnet.New(bf.M())
	defer n.Close()
	kept := make([]*Machine, bf.M())
	var base uint32 // where the next run's tags start
	for i, topology := range []*topo.Butterfly{bf, bf, other, bf} {
		var slabs [][4]*float32
		if i == 1 {
			slabs = make([][4]*float32, bf.M())
			for r, m := range kept {
				slabs[r] = slabHeads(m.cfg)
			}
		}
		used := make([]uint32, bf.M())
		err := memnet.Run(n, func(ep comm.Endpoint) error {
			r := ep.Rank()
			m := kept[r]
			if m == nil || m.bf != topology {
				var err error
				if m, err = NewMachine(ep, topology, Options{}); err != nil {
					return err
				}
				kept[r] = m
			}
			m.Reset(base)
			cfg, err := m.Configure(ws[r].in, ws[r].out)
			for pass := 0; pass < 3 && err == nil; pass++ {
				var res []float32
				if res, err = cfg.Reduce(ws[r].vals); err == nil && !almostEqual(res, want[r], 1e-4) {
					err = fmt.Errorf("machine %d pass %d: wrong sums", i, pass)
				}
			}
			used[r] = m.RoundsUsed()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		base += slices.Max(used)
		for r, m := range kept {
			if fmt.Sprint(shape(m.cfg)) != fmt.Sprint(topology.Degrees()) {
				t.Fatalf("machine %d rank %d: scratch shaped for %v on topology %v", i, r, shape(m.cfg), topology.Degrees())
			}
			if slabs != nil && slabs[r] != slabHeads(m.cfg) {
				t.Fatalf("rank %d: the kept Machine replaced slabs that were large enough", r)
			}
		}
	}
}

// shape is the degrees a Scratch's topology-shaped state was built for.
func shape(s *Scratch) []int {
	degrees := make([]int, len(s.groupOf))
	for i, group := range s.groupOf {
		degrees[i] = len(group)
	}
	return degrees
}

// slabHeads names a Scratch's float slabs by their first elements: the
// two result slabs, the pass-local slab and the up slab.
func slabHeads(s *Scratch) [4]*float32 {
	return [4]*float32{&s.bufs[0].result[0], &s.bufs[1].result[0], &s.local.f[0], &s.up.f[0]}
}

// TestReduceResultOutlivesTheNextPass pins the result's documented
// lifetime: a Reduce or ConfigureReduce result stays bit for bit as
// returned through the next arena pass on its Machine, on the same Config
// or another, while every flip poisons what it recycles. Each step
// reduces other values, so a result that shared memory with the next
// pass's would not survive it.
func TestReduceResultOutlivesTheNextPass(t *testing.T) {
	PoisonArena(true)
	defer PoisonArena(false)
	bf := topo.MustNew([]int{4, 2})
	const width = 2
	rng := rand.New(rand.NewSource(38))
	ws := [2][]workload{randWorkloads(rng, bf.M(), 500, 30, width, true), randWorkloads(rng, bf.M(), 500, 60, width, true)}
	steps := []arenaStep{{1, "fused"}, {1, "reduce"}, {0, "reduce"}, {0, "reduce"}, {1, "fused"}, {0, "reduce"}}
	for _, quant := range []sparse.Quantization{sparse.QuantOff, sparse.QuantFP16, sparse.QuantINT8} {
		t.Run(quant.String(), func(t *testing.T) {
			runOnTransport(t, false, bf.M(), func(ep comm.Endpoint) error {
				r := ep.Rank()
				m, err := NewMachine(ep, bf, Options{Width: width, Quant: quant})
				if err != nil {
					return err
				}
				var cfgs [2]*Config
				if cfgs[0], err = m.Configure(ws[0][r].in, ws[0][r].out); err != nil {
					return err
				}
				var res, kept []float32
				for k, st := range steps {
					w := ws[st.cfg][r]
					vals := make([]float32, len(w.vals))
					for i, v := range w.vals {
						vals[i] = v * (1 + float32(k)/8)
					}
					last := res
					if st.op == "fused" {
						cfgs[st.cfg], res, err = m.ConfigureReduce(w.in, w.out, vals)
					} else {
						res, err = cfgs[st.cfg].Reduce(vals)
					}
					if err != nil {
						return fmt.Errorf("step %d (%s on config %d): %w", k, st.op, st.cfg, err)
					}
					for i := range last {
						if math.Float32bits(last[i]) != math.Float32bits(kept[i]) {
							return fmt.Errorf("step %d (%s on config %d) rewrote step %d's result at %d: %v, returned as %v",
								k, st.op, st.cfg, k-1, i, last[i], kept[i])
						}
					}
					kept = slices.Clone(res)
				}
				return nil
			})
		})
	}
}

// arenaFormula is DESIGN.md's arena formula for a Config in its
// Machine's options fed through StageOut, each buffer counted from a
// cache line of 16 elements: the floats of each generation's result
// slab, of the pass-local slab (the stage, what goes down and what only
// the pass reads) and of the up slab (what goes up), the bytes of the
// pass-local and up byte slabs, and the floats of the Config's residual
// slab.
func arenaFormula(c *Config) extent {
	w, quant := c.mach.opts.Width, c.mach.opts.Quant
	n := extent{result: line(len(c.inSet) * w), local: line(len(c.outSet) * w)}
	for i := range c.layers {
		ls := &c.layers[i]
		n.local += line(len(ls.outUnion) * w) // acc[i]
		if i > 0 {
			n.local += line(len(c.layers[i-1].inUnion) * w) // next[i]
		}
		for t := range ls.group {
			nd, nu := int(ls.outOffsets[t+1]-ls.outOffsets[t])*w, len(ls.inMaps[t])*w
			if quant == sparse.QuantOff {
				n.up += line(nu)
				continue
			}
			n.local += line(nu) + line(len(ls.outMaps[t])*w) // the upward f.Vals and land
			n.localB += line(sparse.QuantizedSize(quant, nd))
			n.upB += line(sparse.QuantizedSize(quant, nu))
			n.res += line(nd) + line(nu)
		}
	}
	if c.bottomMap != nil {
		n.local += line(len(c.layers[len(c.layers)-1].inUnion) * w) // inVals
	}
	return n
}

// line is n elements rounded up to a cache line of 16, as take carves.
func line(n int) int { return (n + 15) &^ 15 }

// TestArenaSlabsMatchTheFormula: after warm passes on one Config fed
// through StageOut, each rank's slabs are exactly as long as the formula
// says — two generations of the result, one copy of everything else —
// up to the last buffer's padding to its cache line.
func TestArenaSlabsMatchTheFormula(t *testing.T) {
	bf := topo.MustNew([]int{4, 2})
	const width = 2
	ws := randWorkloads(rand.New(rand.NewSource(5)), bf.M(), 2000, 150, width, true)
	for _, quant := range []sparse.Quantization{sparse.QuantOff, sparse.QuantINT8} {
		cfgs := make([]*Config, bf.M())
		runOnTransport(t, false, bf.M(), func(ep comm.Endpoint) error {
			r := ep.Rank()
			m, err := NewMachine(ep, bf, Options{Width: width, Quant: quant})
			if err != nil {
				return err
			}
			cfgs[r], err = m.Configure(ws[r].in, ws[r].out)
			for pass := 0; pass < 3 && err == nil; pass++ {
				stage := cfgs[r].StageOut()
				copy(stage, ws[r].vals)
				_, err = cfgs[r].Reduce(stage)
			}
			return err
		})
		for r, c := range cfgs {
			s := c.mach.cfg
			want := arenaFormula(c)
			for _, g := range s.bufs {
				got := extent{line(len(g.result)), line(len(s.local.f)), line(len(s.local.b)),
					line(len(s.up.f)), line(len(s.up.b)), line(len(c.res))}
				if got != want {
					t.Errorf("%v rank %d: slabs (result, pass-local floats, bytes, up floats, bytes, residuals) %+v, formula %+v",
						quant, r, got, want)
				}
			}
		}
	}
}

// liveHeap is the heap still reachable after a full collection, taken
// twice so that what a sync.Pool held is dropped too.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// heldBytes is what one rank's Config and Scratch hold that grows with
// its sets or its groups: the arena slabs and piece headers, the
// residuals, each layer's unions and map blocks, the turnaround map and
// the retired blocks, each as the allocator sized it.
func heldBytes(c *Config) int64 {
	s := c.mach.cfg
	n := alloc(s.local.f, s.up.f, c.res, s.bufs[0].result, s.bufs[1].result) + alloc(s.local.b, s.up.b) + alloc(c.bottomMap)
	for _, g := range s.bufs {
		n += alloc(g.scatter...) + alloc(g.gather...)
	}
	for _, ls := range c.layers {
		n += alloc(ls.inUnion) + alloc(ls.blocks[0])
		if unsafe.SliceData(ls.outUnion) != unsafe.SliceData(ls.inUnion) {
			n += alloc(ls.outUnion) + alloc(ls.blocks[1])
		}
	}
	for _, e := range s.keyBlocks {
		n += alloc(e.b)
	}
	for _, e := range s.intBlocks {
		n += alloc(e.b)
	}
	for _, e := range s.deltaBlocks {
		n += alloc(e.b)
	}
	return n
}

// alloc is the heap the allocator took for blocks, each its capacity's
// bytes rounded up to a size class or page.
func alloc[T any](blocks ...[]T) int64 {
	var n int64
	for _, b := range blocks {
		n += int64(cap(slices.Grow([]byte(nil), cap(b)*int(unsafe.Sizeof(*new(T))))))
	}
	return n
}

// TestRanksRetainOnlyWhatAPassHoldsAcrossAReceive: once a 32-rank
// cluster on three layers has configured, reduced, moved to drifted sets
// and reduced again, what its ranks keep alive beyond the arena slabs,
// the routing state (heldBytes) and the caller's prepared sets is
// headers — a few KiB a rank, whatever the sets' sizes. The
// configuration kernels' work space (the union arenas, the pieces read
// back out of old unions, sparse.Diff's staging: about 20 B for each key
// a rank merged) is borrowed for each call and not among it.
func TestRanksRetainOnlyWhatAPassHoldsAcrossAReceive(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	// What a rank may keep beyond heldBytes: the Machine, the Config and
	// its layer states, receive staging, retire-list slots and the mailbox
	// — about 7 KiB on amd64.
	const perRank = 12 << 10
	bf := topo.MustNew([]int{4, 4, 2})
	rng := rand.New(rand.NewSource(39))
	ws := randWorkloads(rng, bf.M(), 1<<20, 6000, 1, true)
	drift := make([]workload, len(ws))
	for r, w := range ws {
		in, out := w.in.Indices(), w.out.Indices()
		for i := 0; i < len(in); i += 16 {
			in[i] = int32(rng.Intn(1 << 20))
		}
		for i := 0; i < len(out); i += 16 {
			out[i] = int32(rng.Intn(1 << 20))
		}
		drift[r].in, drift[r].out = sparse.MustNewSet(in), sparse.MustNewSet(append(out, in...))
		drift[r].vals = make([]float32, len(drift[r].out))
	}
	before := liveHeap()
	cfgs := make([]*Config, bf.M())
	runOnTransport(t, false, bf.M(), func(ep comm.Endpoint) error {
		r := ep.Rank()
		m, err := NewMachine(ep, bf, Options{Width: 1})
		if err != nil {
			return err
		}
		if cfgs[r], err = m.Configure(ws[r].in, ws[r].out); err != nil {
			return err
		}
		for pass := 0; pass < 3 && err == nil; pass++ {
			_, err = cfgs[r].Reduce(ws[r].vals)
		}
		if err == nil {
			err = cfgs[r].Reconfigure(drift[r].in, drift[r].out)
		}
		for pass := 0; pass < 3 && err == nil; pass++ {
			_, err = cfgs[r].Reduce(drift[r].vals)
		}
		return err
	})
	extra := liveHeap() - before
	for _, c := range cfgs {
		extra -= heldBytes(c)
	}
	t.Logf("ranks keep %d B each beyond their arena, routing state and sets", extra/int64(len(cfgs)))
	if extra > perRank*int64(len(cfgs)) {
		t.Errorf("%d ranks keep %d B beyond their arena, routing state and sets (%d B each), want at most %d B each",
			len(cfgs), extra, extra/int64(len(cfgs)), perRank)
	}
	runtime.KeepAlive(ws)
	runtime.KeepAlive(drift)
}

// failGather fails its machine's first gather send while armed: every
// rank's pass then fails after each has shipped its down pieces and
// none its up ones, so none is stranded.
type failGather struct {
	comm.Endpoint
	armed bool
}

var errInjected = errors.New("injected send failure")

func (e *failGather) Send(to int, tag comm.Tag, p comm.Payload) error {
	if e.armed && tag.Kind() == comm.KindGather {
		e.armed = false
		return errInjected
	}
	return e.Endpoint.Send(to, tag, p)
}

// sameBits says two float slices hold the same bits, NaNs included.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestFailedPassAbandonsItsSlabs: a straggler may read a failed pass's
// one-copy slabs for as long as it likes, so the Machine's next arena
// pass carves fresh pass-local and up slabs, and leaves the failed pass's
// bit for bit as it left them, poisoning included, while its sums stay
// right.
func TestFailedPassAbandonsItsSlabs(t *testing.T) {
	PoisonArena(true)
	defer PoisonArena(false)
	bf := topo.MustNew([]int{4, 2})
	const width = 2
	ws := randWorkloads(rand.New(rand.NewSource(40)), bf.M(), 500, 40, width, true)
	want := refReduce(ws, sparse.Sum, width)
	for _, quant := range []sparse.Quantization{sparse.QuantOff, sparse.QuantINT8} {
		t.Run(quant.String(), func(t *testing.T) {
			runOnTransport(t, false, bf.M(), func(ep comm.Endpoint) error {
				r := ep.Rank()
				fe := &failGather{Endpoint: ep}
				m, err := NewMachine(fe, bf, Options{Width: width, Quant: quant})
				if err != nil {
					return err
				}
				cfg, err := m.Configure(ws[r].in, ws[r].out)
				if err == nil {
					_, err = cfg.Reduce(ws[r].vals)
				}
				if err != nil {
					return err
				}
				s := m.cfg
				local, up := s.local, s.up
				fe.armed = true
				stage := cfg.StageOut()
				copy(stage, ws[r].vals)
				if _, err := cfg.Reduce(stage); !errors.Is(err, errInjected) {
					return fmt.Errorf("the pass with a failing send returned %v", err)
				}
				if &stage[0] != &local.f[0] {
					return errors.New("the failed pass staged outside the slab it carved")
				}
				left := [2]slabs{{slices.Clone(local.f), slices.Clone(local.b)}, {slices.Clone(up.f), slices.Clone(up.b)}}
				for pass := 0; pass < 2; pass++ {
					stage := cfg.StageOut()
					copy(stage, ws[r].vals)
					res, err := cfg.Reduce(stage)
					if err != nil {
						return err
					}
					if quant == sparse.QuantOff && !almostEqual(res, want[r], 1e-4) {
						return fmt.Errorf("pass %d after the failure: wrong sums", pass)
					}
				}
				for i, sl := range [2][2]slabs{{local, s.local}, {up, s.up}} {
					old, now := sl[0], sl[1]
					if !sameBits(old.f, left[i].f) || !bytes.Equal(old.b, left[i].b) {
						return fmt.Errorf("slab %d: a pass after the failure rewrote what the failed pass left", i)
					}
					if len(old.f) > 0 && &old.f[0] == unsafe.SliceData(now.f) || len(old.b) > 0 && &old.b[0] == unsafe.SliceData(now.b) {
						return fmt.Errorf("slab %d: a pass after the failure carved the failed pass's slab", i)
					}
				}
				return nil
			})
		})
	}
}
