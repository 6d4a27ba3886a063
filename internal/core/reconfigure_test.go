package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// perturb returns a new workload generation where roughly half the
// machines gain a few indices (in and out both, keeping each machine's
// out ⊇ in so global coverage is preserved) and the rest keep their
// sets unchanged — the slowly-evolving-sets regime Reconfigure targets.
func perturb(rng *rand.Rand, ws []workload, space, width int) []workload {
	next := make([]workload, len(ws))
	for r, w := range ws {
		if rng.Intn(2) == 0 {
			next[r] = w
			continue
		}
		extra := make([]int32, 1+rng.Intn(4))
		for i := range extra {
			extra[i] = int32(rng.Intn(space))
		}
		inIdx := append(w.in.Indices(), extra...)
		outIdx := append(w.out.Indices(), extra...)
		in := sparse.MustNewSet(inIdx)
		out := sparse.MustNewSet(outIdx)
		vals := make([]float32, len(out)*width)
		for i := range vals {
			vals[i] = float32(rng.Intn(100)) / 4
		}
		next[r] = workload{in: in, out: out, vals: vals}
	}
	return next
}

// freshDigests configures a brand-new cluster with ws and returns every
// rank's Config digest: the ground truth an incremental Reconfigure
// must converge to bit-for-bit.
func freshDigests(t *testing.T, degrees []int, ws []workload) []uint64 {
	t.Helper()
	bf := topo.MustNew(degrees)
	n := memnet.New(bf.M())
	defer n.Close()
	digests := make([]uint64, bf.M())
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		cfg, err := m.Configure(ws[ep.Rank()].in, ws[ep.Rank()].out)
		if err != nil {
			return err
		}
		digests[ep.Rank()] = cfg.Digest()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return digests
}

func TestReconfigureMatchesFreshConfigure(t *testing.T) {
	// The rebuilds recycle the blocks the last pass retired, poisoned.
	PoisonArena(true)
	defer PoisonArena(false)
	rng := rand.New(rand.NewSource(31))
	for _, degrees := range [][]int{{4, 2}, {2, 2, 2}, {8}} {
		bf := topo.MustNew(degrees)
		// Three generations: the starting sets, a small perturbation, and
		// an unrelated redraw (worst case for the incremental pass).
		gens := [][]workload{randWorkloads(rng, bf.M(), 400, 50, 1, true)}
		gens = append(gens, perturb(rng, gens[0], 400, 1))
		gens = append(gens, randWorkloads(rng, bf.M(), 400, 50, 1, true))
		want := make([][]uint64, len(gens))
		for gi, ws := range gens {
			want[gi] = freshDigests(t, degrees, ws)
		}
		wantRes := make([][][]float32, len(gens))
		for gi, ws := range gens {
			wantRes[gi] = refReduce(ws, sparse.Sum, 1)
		}

		n := memnet.New(bf.M())
		err := memnet.Run(n, func(ep comm.Endpoint) error {
			r := ep.Rank()
			m, err := NewMachine(ep, bf, Options{})
			if err != nil {
				return err
			}
			cfg, err := m.Configure(gens[0][r].in, gens[0][r].out)
			if err != nil {
				return err
			}
			// First Reconfigure ships full pieces (no stored state yet) and
			// must leave the routing state exactly where Configure put it.
			for gi, ws := range gens {
				if err := cfg.Reconfigure(ws[r].in, ws[r].out); err != nil {
					return err
				}
				if got := cfg.Digest(); got != want[gi][r] {
					t.Errorf("degrees %v rank %d gen %d: digest %#x, fresh configure %#x",
						degrees, r, gi, got, want[gi][r])
				}
				res, err := cfg.Reduce(ws[r].vals)
				if err != nil {
					return err
				}
				if !almostEqual(res, wantRes[gi][r], 1e-4) {
					t.Errorf("degrees %v rank %d gen %d: reduce mismatch after Reconfigure", degrees, r, gi)
				}
			}
			return nil
		})
		n.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// meter counts what the whole process allocates while every rank of a
// collective runs one step: the ranks meet before and after it, spinning
// so that the meeting itself allocates nothing.
type meter struct {
	ranks        int32
	arrived, gen atomic.Int32
	before       runtime.MemStats
	mallocs      uint64
}

func (b *meter) wait() {
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.ranks {
		b.arrived.Store(0)
		b.gen.Add(1)
		return
	}
	for b.gen.Load() == gen {
		runtime.Gosched()
	}
}

// step runs fn on every rank between two meetings and leaves the
// process-wide malloc count of the interval in b.mallocs.
func (b *meter) step(rank int, fn func() error) error {
	b.wait()
	if rank == 0 {
		runtime.ReadMemStats(&b.before)
	}
	b.wait()
	err := fn()
	b.wait()
	if rank == 0 {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		b.mallocs = after.Mallocs - b.before.Mallocs
	}
	b.wait()
	return err
}

// TestReconfigureWarmUnchangedKeepsScratch: every Config retains what
// its pass received, so already the first Reconfigure over unchanged
// sets — after Configure or after ConfigureReduce — is all markers: it
// must leave the routing state and a quantized Config's residuals where
// they were, and the Reduce after it allocates nothing. A Reconfigure
// that moves pieces drops the residuals, and the Reduce after it
// allocates them again and nothing else: the arena is the machine's and
// already holds the larger sets.
func TestReconfigureWarmUnchangedKeepsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	bf := topo.MustNew([]int{4, 2})
	ws := randWorkloads(rng, bf.M(), 300, 40, 1, true)
	wantRes := refReduce(ws, sparse.Sum, 1)
	smaller := make([]workload, len(ws))
	for r, w := range ws {
		smaller[r] = workload{in: w.in[:len(w.in)-1], out: w.out[:len(w.out)-1], vals: w.vals[:len(w.out)-1]}
	}
	for _, quant := range []sparse.Quantization{sparse.QuantOff, sparse.QuantINT8} {
		for _, start := range []string{"Configure", "ConfigureReduce"} {
			n := memnet.New(bf.M())
			mt := &meter{ranks: int32(bf.M())}
			err := memnet.Run(n, func(ep comm.Endpoint) error {
				r := ep.Rank()
				m, err := NewMachine(ep, bf, Options{Quant: quant})
				if err != nil {
					return err
				}
				var cfg *Config
				if start == "Configure" {
					cfg, err = m.Configure(ws[r].in, ws[r].out)
				} else {
					cfg, _, err = m.ConfigureReduce(ws[r].in, ws[r].out, ws[r].vals)
				}
				// Both arena generations have held the sets, and the mailboxes'
				// recycled queues have grown to a layer's burst, before anything
				// is counted.
				for i := 0; i < 16 && err == nil; i++ {
					_, err = cfg.Reduce(ws[r].vals)
				}
				if err != nil {
					return err
				}
				if (quant != sparse.QuantOff) != (cfg.res != nil) {
					t.Errorf("%s/%v rank %d: %d residuals", start, quant, r, len(cfg.res))
				}
				// A recycled mailbox queue may still grow in any one interval,
				// so each count is the least of a few repetitions.
				const reps = 6
				before, least := cfg.Digest(), ^uint64(0)
				for i := 0; i < reps; i++ {
					res := cfg.res
					if err := cfg.Reconfigure(ws[r].in, ws[r].out); err != nil {
						return err
					}
					if got := cfg.Digest(); got != before {
						t.Errorf("%s/%v rank %d: unchanged Reconfigure %d moved the digest", start, quant, r, i)
					}
					var got []float32
					if err := mt.step(r, func() (err error) { got, err = cfg.Reduce(ws[r].vals); return }); err != nil {
						return err
					}
					least = min(least, mt.mallocs)
					if len(cfg.res) != len(res) || (res != nil && &cfg.res[0] != &res[0]) {
						t.Errorf("%s/%v rank %d: unchanged Reconfigure %d dropped the residuals", start, quant, r, i)
					}
					if quant == sparse.QuantOff && !almostEqual(got, wantRes[r], 1e-4) {
						t.Errorf("%s rank %d: reduce mismatch after unchanged Reconfigure %d", start, r, i)
					}
				}
				if r == 0 && least != 0 {
					t.Errorf("%s/%v: a Reduce after an unchanged Reconfigure allocates %d times", start, quant, least)
				}
				least = ^uint64(0)
				for i := 0; i < reps; i++ {
					to := smaller
					if i&1 == 1 {
						to = ws
					}
					if err := cfg.Reconfigure(to[r].in, to[r].out); err != nil {
						return err
					}
					if cfg.res != nil {
						t.Errorf("%s/%v rank %d: a moved Reconfigure kept the residuals", start, quant, r)
					}
					if err := mt.step(r, func() error { _, err := cfg.Reduce(to[r].vals); return err }); err != nil {
						return err
					}
					least = min(least, mt.mallocs)
				}
				want := uint64(0)
				if quant != sparse.QuantOff {
					want = uint64(bf.M())
				}
				if r == 0 && least != want {
					t.Errorf("%s/%v: a Reduce after a moved Reconfigure allocates %d times, want %d (each rank's residuals)", start, quant, least, want)
				}
				return nil
			})
			n.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sentPieces records, per (layer, receiver), the configuration payload a
// rank sent in its latest pass.
type sentPieces struct {
	comm.Endpoint
	sent map[[2]int]*comm.ConfigPiece
}

func (e *sentPieces) Send(to int, tag comm.Tag, p comm.Payload) error {
	if q, ok := p.(*comm.ConfigPiece); ok {
		e.sent[[2]int{tag.Layer(), to}] = q
	}
	return e.Endpoint.Send(to, tag, p)
}

// TestReconfigureMarksExactlyTheUnchangedPieces moves one index on one
// rank and compares, message by message, what the first Reconfigure
// after Configure (and after ConfigureReduce) ships with what fresh
// passes over the old and the new sets ship: a direction is a marker
// exactly where the two fresh pieces are equal; a changed one is a delta
// exactly where the keys it drops and adds are fewer than the new piece
// holds and the piece goes to another rank, and applying the delta to
// the old fresh piece gives the new one; everywhere else it carries the
// new piece. So only the pieces the
// index falls in re-ship — few, but not none — and the state still lands
// where a fresh Configure of the new sets puts it.
func TestReconfigureMarksExactlyTheUnchangedPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	degrees := []int{4, 2}
	bf := topo.MustNew(degrees)
	old := randWorkloads(rng, bf.M(), 300, 40, 1, true)
	moved := append([]workload(nil), old...)
	const space = 300 // randWorkloads drew from [0, space): this index is new to everyone
	w := old[3]
	moved[3] = workload{
		in:   sparse.MustNewSet(append(w.in.Indices()[1:], space)),
		out:  sparse.MustNewSet(append(w.out.Indices(), space)),
		vals: append(append([]float32(nil), w.vals...), 1),
	}
	want := freshDigests(t, degrees, moved)
	wantRes := refReduce(moved, sparse.Sum, 1)

	// fresh[g][r] is what rank r ships when it configures generation g
	// from nothing.
	run := func(body func(r int, m *Machine, rec *sentPieces) error) {
		t.Helper()
		n := memnet.New(bf.M())
		defer n.Close()
		if err := memnet.Run(n, func(ep comm.Endpoint) error {
			rec := &sentPieces{Endpoint: ep, sent: map[[2]int]*comm.ConfigPiece{}}
			m, err := NewMachine(rec, bf, Options{})
			if err != nil {
				return err
			}
			return body(ep.Rank(), m, rec)
		}); err != nil {
			t.Fatal(err)
		}
	}
	var fresh [2][]map[[2]int]*comm.ConfigPiece
	for g, ws := range [][]workload{old, moved} {
		fresh[g] = make([]map[[2]int]*comm.ConfigPiece, bf.M())
		run(func(r int, m *Machine, rec *sentPieces) error {
			_, err := m.Configure(ws[r].in, ws[r].out)
			fresh[g][r] = rec.sent
			return err
		})
	}

	for _, start := range []string{"Configure", "ConfigureReduce"} {
		reshipped, deltas := make([]int, bf.M()), make([]int, bf.M())
		run(func(r int, m *Machine, rec *sentPieces) error {
			var cfg *Config
			var err error
			if start == "Configure" {
				cfg, err = m.Configure(old[r].in, old[r].out)
			} else {
				cfg, _, err = m.ConfigureReduce(old[r].in, old[r].out, old[r].vals)
			}
			if err != nil {
				return err
			}
			if err := cfg.Reconfigure(moved[r].in, moved[r].out); err != nil {
				return err
			}
			for at, q := range rec.sent {
				was, now := fresh[0][r][at], fresh[1][r][at]
				if err := checkSpelling(q.InSame, q.InDelta, q.In, was.In, now.In, at[1] == r); err != nil {
					t.Errorf("%s rank %d layer %d to %d: in %v", start, r, at[0], at[1], err)
				}
				if err := checkSpelling(q.OutSame, q.OutDelta, q.Out, was.Out, now.Out, at[1] == r); err != nil {
					t.Errorf("%s rank %d layer %d to %d: out %v", start, r, at[0], at[1], err)
				}
				if !q.InSame || !q.OutSame {
					reshipped[r]++
				}
				if q.InDelta != nil || q.OutDelta != nil {
					deltas[r]++
				}
			}
			if got := cfg.Digest(); got != want[r] {
				t.Errorf("%s rank %d: digest %#x, fresh configure %#x", start, r, got, want[r])
			}
			res, err := cfg.Reduce(moved[r].vals)
			if err != nil {
				return err
			}
			if !almostEqual(res, wantRes[r], 1e-4) {
				t.Errorf("%s rank %d: reduce mismatch after Reconfigure", start, r)
			}
			return nil
		})
		total, spelled := 0, 0
		for r, k := range reshipped {
			total, spelled = total+k, spelled+deltas[r]
		}
		// The dropped and the added index each sit in one piece of rank 3's
		// split and in one piece of the layer-2 split below it.
		if reshipped[3] == 0 || total > 4 || spelled == 0 {
			t.Errorf("%s: %d pieces re-shipped (%v by rank), %d of them with deltas; want 1..4 starting at rank 3, some as deltas",
				start, total, reshipped, spelled)
		}
	}
}

// checkSpelling is one direction of TestReconfigureMarksExactlyTheUnchangedPieces:
// how a piece shipped against the fresh pieces of the old and new sets.
// A piece a rank sends itself is never a delta.
func checkSpelling(same bool, delta *comm.PieceDelta, shipped, was, now sparse.Set, self bool) error {
	var removed []int32
	var added sparse.Set
	for j, k := range was {
		if !now.Contains(k) {
			removed = append(removed, int32(j))
		}
	}
	for _, k := range now {
		if !was.Contains(k) {
			added = append(added, k)
		}
	}
	changed := len(removed)+len(added) > 0
	switch wantDelta := changed && !self && len(removed)+len(added) < len(now); {
	case same == changed:
		return fmt.Errorf("marker %v, piece changed %v", same, changed)
	case same:
		return nil
	case (delta != nil) != wantDelta:
		return fmt.Errorf("delta %v, %d removed and %d added of %d", delta != nil, len(removed), len(added), len(now))
	case delta == nil && !shipped.Equal(now):
		return fmt.Errorf("shipped %v, want %v", shipped, now)
	case delta == nil:
		return nil
	case !slices.Equal(delta.Removed, removed) || !delta.Added.Equal(added) || delta.Len != len(now):
		return fmt.Errorf("delta %+v, want removed %v added %v of %d", delta, removed, added, len(now))
	}
	var applied []int32
	for j, k := range was {
		if !slices.Contains(delta.Removed, int32(j)) {
			applied = append(applied, k.Index())
		}
	}
	if got := sparse.MustNewSet(append(applied, delta.Added.Indices()...)); !got.Equal(now) {
		return fmt.Errorf("delta applied to the old piece gives %v, want %v", got, now)
	}
	return nil
}

// TestReconfigureErrorPoisons drives a genuine mid-collective failure —
// a Strict coverage violation surfacing in the bottom turnaround, after
// layer state has already been rewritten — and asserts the Config
// refuses all further use, while a pre-exchange validation failure (see
// TestReconfigureRejectsUnsortedSets) leaves it usable.
func TestReconfigureErrorPoisons(t *testing.T) {
	bf := topo.MustNew([]int{1})
	n := memnet.New(1)
	defer n.Close()
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{Strict: true})
		if err != nil {
			return err
		}
		s := sparse.MustNewSet([]int32{1, 2, 3})
		cfg, err := m.Configure(s, s)
		if err != nil {
			return err
		}
		uncovered := sparse.MustNewSet([]int32{1, 2, 3, 4})
		if err := cfg.Reconfigure(uncovered, s); err == nil {
			t.Fatal("strict Reconfigure accepted an uncovered in-set")
		}
		if !cfg.Poisoned() {
			t.Error("Poisoned() false after a mid-collective Reconfigure failure")
		}
		if err := cfg.Reconfigure(s, s); !errors.Is(err, ErrPoisoned) {
			t.Errorf("Reconfigure on a poisoned Config: got %v, want ErrPoisoned", err)
		}
		_, err = cfg.Reduce(make([]float32, len(s)))
		if !errors.Is(err, ErrPoisoned) {
			t.Errorf("Reduce on a poisoned Config: got %v, want ErrPoisoned", err)
		}
		var pe *PoisonedError
		if !errors.As(err, &pe) || pe.Rank != 0 {
			t.Errorf("poisoned error not structured: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureRejectsUnsortedSets(t *testing.T) {
	bf := topo.MustNew([]int{1})
	n := memnet.New(1)
	defer n.Close()
	err := memnet.Run(n, func(ep comm.Endpoint) error {
		m, err := NewMachine(ep, bf, Options{})
		if err != nil {
			return err
		}
		s := sparse.MustNewSet([]int32{1, 2, 3})
		cfg, err := m.Configure(s, s)
		if err != nil {
			return err
		}
		bad := sparse.Set{s[2], s[0], s[1]}
		if err := cfg.Reconfigure(bad, s); err == nil {
			t.Error("Reconfigure accepted an unsorted in-set")
		}
		if err := cfg.Reconfigure(s, s); err != nil {
			t.Errorf("single-rank Reconfigure: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
