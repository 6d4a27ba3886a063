package core

import (
	"math"
	"slices"
	"sync/atomic"

	"kylix/internal/comm"
	"kylix/internal/sparse"
)

// piece is one value piece exchanged with one member of a layer group,
// in every form it takes: the float view the kernels read and write and
// the wire form — raw or packed — the send step ships it in. Only the
// carve below and the send and land steps (reduce.go) look at
// Options.Quant. The headers are the machine's, built once per arena
// generation; each pass's carve re-points every slice in them.
type piece struct {
	// f is the raw wire form, and f.Vals the float view the send step
	// ships (raw) or encodes from (quantized): on the way down a segment
	// of the current value vector, on the way up an arena buffer
	// (len = |inMaps[t]| * width) refilled by GatherInto.
	f comm.Floats
	// q is the packed wire form under a lossy Options.Quant; its Data,
	// sized exactly by sparse.QuantizedSize, is refilled by the quantize
	// kernel and may, like f.Vals, still be draining through a transport
	// when the round ends.
	q comm.QVals
	// res is the error-feedback residual of the piece sent (len =
	// len(f.Vals)): each round's quantization error is left here and
	// added to the next round's values before encoding. That is state of
	// one Config, not scratch, so it is a segment of Config.res. Nil when
	// quantization or its feedback is off.
	res []float32
	// land is where the member's own piece is dequantized on the way down
	// (len = |outMaps[t]| * width), consumed by the staged fold within the
	// layer. On the way up pieces are dequantized straight into their
	// disjoint segments of the assembly buffer.
	land []float32
}

// genBufs is one generation of a machine's reduction arena: headers
// shaped by the topology and built once, and the two grow-only slabs
// every buffer a pass writes is carved from, so a pass allocates nothing
// once the slabs have reached the largest Config the machine has seen.
type genBufs struct {
	// acc[i] is layer i+1's scatter-reduce accumulator
	// (len = |outUnion| * width).
	acc [][]float32
	// scatter[i][t] / gather[i][t] are the pieces exchanged with layer
	// i+1's member t on the way down / up.
	scatter, gather [][]piece
	// inVals is the bottom turnaround vector (len = |bottomIn| * width;
	// nil under an identity turnaround).
	inVals []float32
	// next[i] is the allgather assembly buffer below layer i+1
	// (len = |inSet| * width for i == 0, |layers[i-1].inUnion| * width
	// otherwise). next[0] is the vector handed back to the caller.
	next [][]float32
	// f and b are the slabs. f[:staged] is the stage of the pass that
	// flips into this generation: the out values StageOut handed out (none
	// when the caller feeds Reduce its own vector) and, in a fused pass,
	// the accumulators its layers folded into. That pass carves after it;
	// staged may pass len(f) until the flip grows f.
	f      []float32
	b      []byte
	staged int
	// stamp and from name the carve the headers hold: the Config.stamp it
	// was made for and the stage it follows. A pass that finds its own
	// skips the carve — peers hold the piece headers cached, and rewriting
	// one, even unchanged, costs both sides a miss.
	stamp uint64
	from  int
}

// Scratch is a machine's reusable memory: the configuration pass's
// transient state, the two-generation reduction arena and the base a
// successor Machine's Configure continues from. One instance serves
// every pass on a Machine (one goroutine, passes never overlap) and
// nothing in it outlives a pass except as capacity (retired blocks too)
// and as the base, so a successor Machine on the same rank, peers and
// options may inherit it (Options.Scratch) once every rank has finished
// the predecessor's work without error: then the slabs and retired
// blocks are quiescent and every rank's base is of the same pass.
//
// The arena alternates generations by arena pass — a Reduce or the
// gather of a fused ConfigureReduce, of whichever Config: pass N rewrites
// the buffers of pass N-2, which every peer has consumed by then, because
// pass N-1 took a message from every member of every layer group, down
// and up, sent only after that member finished pass N-2. The groups are
// the topology's, not a Config's, so the argument and the arena are the
// machine's (in full, with the two senders outside it: DESIGN.md, "Hot
// path & memory discipline"). A slab that must grow is replaced, not
// resized, so payloads pointing into the old one stay intact.
type Scratch struct {
	// rank and degrees are what the topology-shaped state below was built
	// for; a Machine that differs rebuilds everything.
	rank    int
	degrees []int
	// groupOf[layer-1] is this machine's layer group (topology-fixed;
	// retained read-only by every Config's layerStates).
	groupOf [][]int
	// groups[layer-1][t] is the singleton receive group {groupOf[t]}.
	groups [][][]int
	// got/valP/plP/seen stage one layer's received pieces, indexed by group
	// slot and sized to the widest layer: payloads in the configuration
	// pass, and in a reduction the arrival-order receipts awaiting their
	// canonical-order fold — the float view (valP) beside the payload it
	// may alias (plP), which is released after the fold; seen guards both
	// against duplicate deliveries. inP/outP line a rebuilding layer's
	// pieces up for the union kernel, and keys holds the ones read back
	// out of the old unions for it (capacity kept across passes). Each
	// layer clears what it uses.
	got       []*comm.ConfigPiece
	inP, outP []sparse.Set
	valP      [][]float32
	plP       []comm.Payload
	seen      []bool
	keys      []sparse.Key
	// uni is the tree-union arena; unions are cloned out of it into the
	// retained layerState, so only the final deduplicated keys are paid
	// for per configuration.
	uni sparse.UnionScratch
	// offs stages a layer's split offsets, in then out, until the pass
	// knows whether the split moved (2*(maxDeg+1) entries).
	offs []int32
	// gen is the arena generation of the latest arena pass; stamps counts
	// the Config.stamps handed out.
	gen    int
	bufs   [2]genBufs
	stamps uint64
	// base is the Config of the latest configuration pass; only a
	// successor Machine's Configure continues from it.
	base *Config
	// keyBlocks and intBlocks are the retire list: union, map, top-Set and
	// order-map blocks, each stamped with the configuration pass that
	// superseded it; done counts the passes finished without error, and a
	// block is taken only once its pass is among them (DESIGN.md, "Hot
	// path & memory discipline", retired per machine).
	keyBlocks retireList[sparse.Key]
	intBlocks retireList[int32]
	done      uint64
}

// retireSlots is how many blocks of each kind the retire list parks (a
// retirement past it evicts the oldest). retireSlack completes the fit
// rule, comm.RecvPool's: a parked block serves n elements when n <=
// capacity <= 2n + retireSlack, so a small set never pins a large block.
const retireSlots, retireSlack = 16, 64

// retireList parks blocks of routing state — Set keys or position-map
// entries — oldest first, each with the pass that superseded it.
type retireList[T ~uint64 | ~int32] []retired[T]

type retired[T any] struct {
	b    []T
	pass uint64
}

// put parks b, whole capacity and all, stamped with pass, unless it is
// parked already: directions and callers that share a block retire it
// once each.
func (l *retireList[T]) put(b []T, pass uint64) {
	if cap(b) > 0 && !slices.ContainsFunc(*l, func(e retired[T]) bool { return &e.b[0] == &b[:1][0] }) {
		*l = append(slices.Delete(*l, 0, max(len(*l)-retireSlots+1, 0)), retired[T]{b[:cap(b)], pass})
	}
}

// take removes the newest block that a pass up to done superseded and
// that fits n elements, and returns n of them, stale contents and all;
// nil when none does.
func (l *retireList[T]) take(n int, done uint64) []T {
	for i := len(*l) - 1; i >= 0; i-- {
		if e := (*l)[i]; e.pass <= done && n <= len(e.b) && len(e.b) <= 2*n+retireSlack {
			*l = slices.Delete(*l, i, i+1)
			return e.b[:n]
		}
	}
	return nil
}

// poisonRetired scribbles all-ones over the blocks the last finished
// pass superseded, under PoisonArena: a key of index -1, which no Set
// holds, or a position of -1.
func (s *Scratch) poisonRetired() {
	if poisonArena.Load() {
		poisonBlocks(s.keyBlocks, s.done)
		poisonBlocks(s.intBlocks, s.done)
	}
}

func poisonBlocks[T ~uint64 | ~int32](l retireList[T], pass uint64) {
	for _, e := range l {
		if e.pass == pass {
			for i := range e.b {
				e.b[i] = ^T(0)
			}
		}
	}
}

// supersede retires a layer's unions and maps, which its Config built
// and a rebuild is replacing, stamped with the pass in progress: that
// pass still reads them, and peers read them no later than the pass
// before it. The pass makes them takeable once it has finished.
func (s *Scratch) supersede(ls *layerState) {
	s.keyBlocks.put(ls.inUnion, s.done+1)
	s.keyBlocks.put(ls.outUnion, s.done+1)
	s.intBlocks.put(ls.blocks[0], s.done+1)
	s.intBlocks.put(ls.blocks[1], s.done+1)
}

// NewSet is sparse.NewSetInto over blocks the machine's passes retired,
// for a caller's top Set and order map; a block it leaves unused stays
// parked.
func (m *Machine) NewSet(idx []int32) (sparse.Set, []int32, error) {
	s := m.scratch()
	keys, perm := s.keyBlocks.take(len(idx), s.done), s.intBlocks.take(len(idx), s.done)
	set, p, err := sparse.NewSetInto(keys, perm, idx)
	if p == nil {
		s.intBlocks.put(perm, s.done)
	}
	return set, p, err
}

// RetireSet parks a top Set and order map the caller built for this
// machine's passes and will never read again: ones the last pass
// superseded, as a Reconfigure to new sets does.
func (m *Machine) RetireSet(set sparse.Set, perm []int32) {
	s := m.scratch()
	s.keyBlocks.put(set, s.done)
	s.intBlocks.put(perm, s.done)
	s.poisonRetired()
}

// PoisonArena is a test hook: while on, every flip scribbles over the
// generation's recycled slabs — NaN floats past the stage, 0xFF bytes —
// so a pass that read a value it did not write would compute garbage
// instead of a plausible stale sum.
func PoisonArena(on bool) { poisonArena.Store(on) }

var poisonArena atomic.Bool

func poison(f []float32, b []byte) {
	for i := range f {
		f[i] = float32(math.NaN())
	}
	for i := range b {
		b[i] = 0xFF
	}
}

// take cuts the next n elements off a slab, starting on a multiple of 16
// (a cache line of floats, as the allocator aligned the buffers when each
// was its own: memmove of a result runs slower from a split line). A slab
// too short yields nil and the count keeps running, so one walk both
// carves and sizes.
//
//kylix:hotpath
func take[T any](slab []T, at *int, n int) []T {
	lo := (*at + 15) &^ 15
	*at = lo + n
	if *at > len(slab) {
		return nil
	}
	return slab[lo:*at:*at]
}

// flip advances the machine's arena to its next generation and carves it
// for this Config unless it still is, allocating only if the Config is
// the generation's largest yet.
//
//kylix:hotpath
func (c *Config) flip() *genBufs {
	s := c.mach.cfg
	s.gen ^= 1
	g := &s.bufs[s.gen]
	if poisonArena.Load() {
		poison(g.f[min(g.staged, len(g.f)):], g.b)
	}
	if g.stamp != c.stamp || g.from != g.staged {
		if nf, nb, nr := c.carve(g); nf > len(g.f) || nb > len(g.b) || nr > len(c.res) {
			c.grow(g, nf, nb, nr)
			c.carve(g)
		}
		g.stamp, g.from = c.stamp, g.staged
	}
	g.staged = 0
	return g
}

// carve points a generation's headers at segments of its slabs, sized by
// this Config's routing state, and the pieces' residuals at segments of
// the Config's own slab; it returns how much of each it took.
//
//kylix:hotpath
func (c *Config) carve(g *genBufs) (nf, nb, nr int) {
	w := c.mach.opts.Width
	quant, feedback := c.mach.opts.Quant, !c.mach.opts.QuantNoFeedback
	nf = g.staged
	below := c.inSet
	for i := range c.layers {
		ls := &c.layers[i]
		g.acc[i] = take(g.f, &nf, len(ls.outUnion)*w)
		g.next[i] = take(g.f, &nf, len(below)*w)
		below = ls.inUnion
		for t := range ls.group {
			down, up := &g.scatter[i][t], &g.gather[i][t]
			nd, nu := int(ls.outOffsets[t+1]-ls.outOffsets[t])*w, len(ls.inMaps[t])*w
			up.f.Vals = take(g.f, &nf, nu)
			if quant == sparse.QuantOff {
				continue
			}
			down.q = comm.QVals{Mode: quant, N: nd, Data: take(g.b, &nb, sparse.QuantizedSize(quant, nd))}
			up.q = comm.QVals{Mode: quant, N: nu, Data: take(g.b, &nb, sparse.QuantizedSize(quant, nu))}
			down.land = take(g.f, &nf, len(ls.outMaps[t])*w)
			if feedback {
				down.res, up.res = take(c.res, &nr, nd), take(c.res, &nr, nu)
			}
		}
	}
	g.inVals = nil // an identity turnaround (nil bottomMap) needs none
	if c.bottomMap != nil {
		g.inVals = take(g.f, &nf, len(below)*w) // the bottom in-union
	}
	return nf, nb, nr
}

// grow replaces whichever slabs a carve found short, exactly sized. The
// residuals must start at zero (no prior error to fold in) and are
// dropped when a pass moves a piece size: made here, or taken from a
// finished Run's Config (continueFrom).
//
//kylix:coldpath
func (c *Config) grow(g *genBufs, nf, nb, nr int) {
	if nf > len(g.f) {
		g.f = make([]float32, nf)
	}
	if nb > len(g.b) {
		g.b = make([]byte, nb)
	}
	if nr > len(c.res) {
		c.res = make([]float32, nr)
	}
}

// StageOut returns the buffer the machine's next arena pass should be
// fed from: n values at the head of the float slab of the generation
// that pass will flip to. Layer-1 pieces are slices of a pass's argument,
// sent without copying, so a caller that cannot leave its own vector
// alone that long fills this one, next written two arena passes later.
//
//kylix:hotpath
func (m *Machine) StageOut(n int) []float32 {
	s := m.scratch()
	g := &s.bufs[s.gen^1]
	g.staged = n
	if len(g.f) < n {
		//kylix:allow hotpathalloc:make -- grows to the largest stage the machine has seen
		g.f = make([]float32, n)
	}
	return g.f[:n:n]
}

// StageOut is Machine.StageOut sized for the next Reduce on this Config:
// Width values per key of OutSet(), in key order.
//
//kylix:hotpath
func (c *Config) StageOut() []float32 {
	return c.mach.StageOut(len(c.outSet) * c.mach.opts.Width)
}

// scratch returns the machine's Scratch — the one it was given, or its
// own — building the topology-shaped parts (receive groups, staging,
// arena headers) on first use. One built for another rank or topology
// (an elastic epoch moved the members) is started over.
//
//kylix:coldpath
func (m *Machine) scratch() *Scratch {
	if m.cfg != nil {
		return m.cfg
	}
	s := m.opts.Scratch
	if s == nil {
		s = new(Scratch)
	}
	m.cfg = s
	degrees := m.bf.Degrees()
	if s.rank == m.Rank() && slices.Equal(s.degrees, degrees) { // never true of a zero Scratch
		return s
	}
	L := m.bf.Layers()
	*s = Scratch{rank: m.Rank(), degrees: degrees, groupOf: make([][]int, L), groups: make([][][]int, L)}
	maxDeg := 0
	for layer := 1; layer <= L; layer++ {
		group := m.bf.Group(m.Rank(), layer)
		d := len(group)
		maxDeg = max(maxDeg, d)
		s.groupOf[layer-1] = group
		s.groups[layer-1] = make([][]int, d)
		for t := range group {
			s.groups[layer-1][t] = group[t : t+1 : t+1]
		}
	}
	s.got = make([]*comm.ConfigPiece, maxDeg)
	s.inP = make([]sparse.Set, maxDeg)
	s.outP = make([]sparse.Set, maxDeg)
	s.valP = make([][]float32, maxDeg)
	s.plP = make([]comm.Payload, maxDeg)
	s.seen = make([]bool, maxDeg)
	s.offs = make([]int32, 2*(maxDeg+1))
	for gen := range s.bufs {
		g := &s.bufs[gen]
		g.acc, g.next = make([][]float32, L), make([][]float32, L)
		g.scatter, g.gather = make([][]piece, L), make([][]piece, L)
		for i, group := range s.groupOf {
			g.scatter[i], g.gather[i] = make([]piece, len(group)), make([]piece, len(group))
		}
	}
	return s
}

// memberIndex locates a rank in a layer group (groups are small — the
// topology degree — so a linear scan beats any index structure).
func memberIndex(group []int, rank int) int {
	for t, m := range group {
		if m == rank {
			return t
		}
	}
	return -1
}
