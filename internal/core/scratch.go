package core

import (
	"math"
	"slices"
	"sync"
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
	// (len = |inMaps[t]| * width) refilled by GatherInto. Raw, a peer
	// may read it by reference until it sends this rank its next piece
	// (memnet, a delaying fabric, a self-send), so the upward one is in
	// the up slab; quantized, only this rank reads it, within the pass,
	// so it is pass-local.
	f comm.Floats
	// q is the packed wire form under a lossy Options.Quant; its Data,
	// sized exactly by sparse.QuantizedSize, is refilled by the quantize
	// kernel and is what ships, by reference like f: the downward one in
	// the pass-local byte slab, the upward one in the up byte slab.
	q comm.QVals
	// res is the error-feedback residual of the piece sent (len =
	// len(f.Vals)): each round's quantization error is left here and
	// added to the next round's values before encoding. That is state of
	// one Config, not scratch, so it is a segment of Config.res. Nil when
	// quantization or its feedback is off.
	res []float32
	// land is where the member's own piece is dequantized on the way down
	// (len = |outMaps[t]| * width), consumed by the staged fold within the
	// layer, so it is pass-local. On the way up pieces are dequantized
	// straight into their disjoint segments of the assembly buffer.
	land []float32
}

// slabs is a grow-only pair of slabs, floats and bytes, that carves cut
// buffers from.
type slabs struct {
	f []float32
	b []byte
}

// fit replaces *b with n new elements if it is shorter — never resized in
// place, for payloads may still point into the old one — and counts 1 if
// it did.
func fit[T any](b *[]T, n int) int {
	if n <= len(*b) {
		return 0
	}
	*b = make([]T, n)
	return 1
}

// extent is how much of each slab one carve takes.
type extent struct{ result, local, localB, up, upB, res int }

// genBufs is one generation of a machine's reduction arena: headers
// shaped by the topology and built once, and the grow-only slab the
// result is carved from. Everything else the headers point at has one
// copy, in the Scratch's pass-local and up slabs, which both generations
// share; the headers themselves alternate, because a carve rewrites them
// at the flip, when a slow peer may still read the last pass's up-piece
// header. A pass allocates nothing once the slabs have reached the
// largest Config the machine has seen.
type genBufs struct {
	// acc[i] is layer i+1's scatter-reduce accumulator
	// (len = |outUnion| * width), pass-local: the next layer ships
	// segments of it down by reference.
	acc [][]float32
	// scatter[i][t] / gather[i][t] are the pieces exchanged with layer
	// i+1's member t on the way down / up.
	scatter, gather [][]piece
	// inVals is the bottom turnaround vector (len = |bottomIn| * width;
	// nil under an identity turnaround); pass-local.
	inVals []float32
	// next[i] is the allgather assembly buffer below layer i+1
	// (len = |inSet| * width for i == 0, |layers[i-1].inUnion| * width
	// otherwise). next[0] is the vector handed back to the caller, valid
	// until the second-following arena pass, so it is cut from result,
	// the one slab of each generation; the others are pass-local.
	next   [][]float32
	result []float32
	// stamp and from name the carve the headers hold: the Config.stamp it
	// was made for and the stage it follows (stamp 0: none, or one into a
	// shared slab since replaced). A pass that finds its own skips the
	// carve — peers hold the piece headers cached, and rewriting one, even
	// unchanged, costs both sides a miss.
	stamp uint64
	from  int
}

// Scratch is a machine's reusable memory: the configuration pass's
// receive staging, the reduction arena and the base the next run's
// Configure continues from. The Machine owns it outright: it serves
// every pass on the Machine (one goroutine, passes never overlap), and
// nothing in it outlives a pass except as capacity (retired blocks too)
// and as the base, so it carries across a Reset as it stands once every
// rank has finished the earlier passes without error: then every rank's
// base is of the same pass, and the slabs are covered by the argument
// below.
//
// Only the result alternates, by arena pass — a Reduce or the gather of
// a fused ConfigureReduce, of whichever Config — for the caller, who may
// read it until the second-following pass. Every buffer that ships by
// reference has one copy, in one of two slabs picked by its direction.
// What goes down (the stage, the accumulators, the downward q.Data) is
// pass-local: a member folds a down piece before it sends this rank the
// gather piece of that layer, which this rank's pass waits for, so the
// piece is read before the next StageOut or pass rewrites it. What goes
// up (raw upward f.Vals, upward q.Data) is in the up slab, written only
// in a pass's gather half, which starts once every member of every
// layer group has sent this rank a piece of the pass — each sent after
// that member finished the last pass and so landed every up piece of
// it. The groups are the topology's, not a Config's, so the argument
// and the arena are the machine's (in full, with the senders outside
// it: DESIGN.md, "Hot path & memory discipline"). A slab that must grow
// is replaced, not resized, and so are both shared slabs after a pass
// that failed (abandon): payloads pointing into the old ones stay
// intact.
type Scratch struct {
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
	// pieces up for the union kernel. Each layer clears what it uses; all
	// are held across a receive (what is not is borrowed: kernelWork).
	got       []*comm.ConfigPiece
	inP, outP []sparse.Set
	valP      [][]float32
	plP       []comm.Payload
	seen      []bool
	// offs stages a layer's split offsets, in then out, until the pass
	// knows whether the split moved (2*(maxDeg+1) entries).
	offs []int32
	// gen is the arena generation of the latest arena pass; stamps counts
	// the Config.stamps handed out.
	gen    int
	bufs   [2]genBufs
	stamps uint64
	// local and up are the slabs both generations' headers point into
	// (see carve): local the pass-local one, what goes down and what only
	// this rank reads within a pass; up what goes up. local.f[:staged] is
	// the stage of the next arena pass: the out values StageOut handed
	// out (none when the caller feeds Reduce its own vector) and, in a
	// fused pass, the accumulators its layers folded into. That pass
	// carves after it; staged may pass len(local.f) until the flip grows
	// the slab.
	local, up slabs
	staged    int
	// base is the Config of the latest configuration pass; carried says a
	// Reset has come since, so the next Configure continues from it.
	base    *Config
	carried bool
	// keyBlocks, intBlocks and deltaBlocks are the retire list: union,
	// map, top-Set and order-map blocks and the blocks sent deltas ride
	// in, each stamped with the configuration pass that superseded it;
	// done counts the passes finished without error, and a block is taken
	// only once its pass is among them (DESIGN.md, "Hot path & memory
	// discipline", retired per machine).
	keyBlocks   retireList[sparse.Key]
	intBlocks   retireList[int32]
	deltaBlocks retireList[comm.PieceDelta]
	done        uint64
}

// kernelWork is what the configuration kernels use only between a
// receive and the next send: the union arena, the pieces read back out
// of old unions and sparse.Diff's staging. Borrowed from workPool per
// call, the spaces out at once track the goroutines running, not ranks.
type kernelWork struct {
	uni  sparse.UnionScratch
	keys []sparse.Key
	pos  []int32
}

var workPool = sync.Pool{New: func() any { return new(kernelWork) }}

// borrowWork takes a work space from the pool, its keys emptied and the
// rest stale: another call's, which PoisonArena turns to garbage.
func borrowWork() *kernelWork {
	kw := workPool.Get().(*kernelWork)
	if poisonArena.Load() {
		kw.uni.Poison()
		sparse.Scribble(kw.keys, noKey)
		sparse.Scribble(kw.pos, -1)
	}
	kw.keys = kw.keys[:0]
	return kw
}

// retireSlots is how many blocks of each kind the retire list parks (a
// retirement past it evicts the oldest). retireSlack completes the fit
// rule, comm.RecvPool's: a parked block serves n elements when n <=
// capacity <= 2n + retireSlack, so a small set never pins a large block.
const retireSlots, retireSlack = 16, 64

// retireList parks blocks of routing state — Set keys or position-map
// entries — and of sent deltas, oldest first, each with the pass that
// superseded it.
type retireList[T any] []retired[T]

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

// get is take, or n elements newly made when no block fits.
func (l *retireList[T]) get(n int, done uint64) []T {
	if b := l.take(n, done); b != nil {
		return b
	}
	return make([]T, n)
}

// poisonRetired scribbles over the blocks the last finished pass
// superseded, under PoisonArena: a key of index -1, which no Set holds,
// a position of -1, or a delta of length -1, which no piece applies.
func (s *Scratch) poisonRetired() {
	if poisonArena.Load() {
		poisonBlocks(s.keyBlocks, s.done, noKey)
		poisonBlocks(s.intBlocks, s.done, -1)
		poisonBlocks(s.deltaBlocks, s.done, comm.PieceDelta{Len: -1})
	}
}

func poisonBlocks[T any](l retireList[T], pass uint64, bad T) {
	for _, e := range l {
		if e.pass == pass {
			sparse.Scribble(e.b, bad)
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
// generation's result slab and the pass-local slab past the stage, and
// every gather half over the up slab, each at the earliest point its
// argument (Scratch) allows — NaN floats, 0xFF bytes — so a pass that
// read a value it did not write, or a peer that read a piece past its
// lifetime, would compute garbage instead of a plausible stale sum.
func PoisonArena(on bool) { poisonArena.Store(on) }

var poisonArena atomic.Bool

func poison(f []float32, b []byte) {
	sparse.Scribble(f, float32(math.NaN()))
	sparse.Scribble(b, 0xFF)
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
// the largest the slabs have seen.
//
//kylix:hotpath
func (c *Config) flip() *genBufs {
	s := c.mach.cfg
	s.gen ^= 1
	g := &s.bufs[s.gen]
	if poisonArena.Load() {
		poison(g.result, nil)
		poison(s.local.f[min(s.staged, len(s.local.f)):], s.local.b)
	}
	if g.stamp != c.stamp || g.from != s.staged {
		if c.grow(g, c.carve(g)) {
			c.carve(g)
		}
		g.stamp, g.from = c.stamp, s.staged
	}
	s.staged = 0
	return g
}

// carve points a generation's headers at segments of its result slab and
// of the shared slabs, sized by this Config's routing state, and the
// pieces' residuals at segments of the Config's own slab; it returns how
// much of each it took. The result goes in the generation's slab, what
// goes up and ships by reference (raw f.Vals, q.Data) in the up slab,
// and the rest — what goes down, and what only this rank reads — in the
// pass-local slab, after the stage.
//
//kylix:hotpath
func (c *Config) carve(g *genBufs) (n extent) {
	w := c.mach.opts.Width
	quant, feedback := c.mach.opts.Quant, !c.mach.opts.QuantNoFeedback
	s := c.mach.cfg
	n.local = s.staged
	upF, upAt := s.up.f, &n.up
	if quant != sparse.QuantOff {
		upF, upAt = s.local.f, &n.local // only q.Data crosses
	}
	below := c.inSet
	for i := range c.layers {
		ls := &c.layers[i]
		g.acc[i] = take(s.local.f, &n.local, len(ls.outUnion)*w)
		if i == 0 {
			g.next[i] = take(g.result, &n.result, len(below)*w)
		} else {
			g.next[i] = take(s.local.f, &n.local, len(below)*w)
		}
		below = ls.inUnion
		for t := range ls.group {
			down, up := &g.scatter[i][t], &g.gather[i][t]
			nd, nu := int(ls.outOffsets[t+1]-ls.outOffsets[t])*w, len(ls.inMaps[t])*w
			up.f.Vals = take(upF, upAt, nu)
			if quant == sparse.QuantOff {
				continue
			}
			down.q = comm.QVals{Mode: quant, N: nd, Data: take(s.local.b, &n.localB, sparse.QuantizedSize(quant, nd))}
			up.q = comm.QVals{Mode: quant, N: nu, Data: take(s.up.b, &n.upB, sparse.QuantizedSize(quant, nu))}
			down.land = take(s.local.f, &n.local, len(ls.outMaps[t])*w)
			if feedback {
				down.res, up.res = take(c.res, &n.res, nd), take(c.res, &n.res, nu)
			}
		}
	}
	g.inVals = nil // an identity turnaround (nil bottomMap) needs none
	if c.bottomMap != nil {
		g.inVals = take(s.local.f, &n.local, len(below)*w) // the bottom in-union
	}
	return n
}

// grow replaces whichever slabs a carve found short, exactly sized, and
// reports whether it replaced any. A new shared slab leaves both
// generations' carves stale, so neither keeps the old one alive by
// skipping its next carve. The residuals must start at zero (no prior
// error to fold in) and are dropped when a pass moves a piece size: made
// here, or taken from a finished Run's Config (continueFrom).
//
//kylix:coldpath
func (c *Config) grow(g *genBufs, n extent) bool {
	s := c.mach.cfg
	shared := fit(&s.local.f, n.local) + fit(&s.local.b, n.localB) + fit(&s.up.f, n.up) + fit(&s.up.b, n.upB)
	if shared > 0 {
		s.bufs[0].stamp, s.bufs[1].stamp = 0, 0
	}
	return shared+fit(&g.result, n.result)+fit(&c.res, n.res) > 0
}

// abandon gives up the shared slabs after a pass that failed: a
// straggler may still read them, so the machine's next pass carves new
// ones and nothing rewrites these.
//
//kylix:coldpath
func (s *Scratch) abandon() {
	s.local, s.up, s.staged = slabs{}, slabs{}, 0
	s.bufs[0].stamp, s.bufs[1].stamp = 0, 0
}

// StageOut returns the buffer the machine's next arena pass should be
// fed from: n values at the head of the pass-local slab. Layer-1 pieces
// are slices of a pass's argument, sent without copying: peers have read
// them once the pass returns without error, and stragglers of one that
// failed may read them later. A caller that stages its values fills
// this buffer, which is next written by the next StageOut (or an arena
// pass fed from elsewhere) and is given up with its slab if the pass
// fails (abandon).
//
//kylix:hotpath
func (m *Machine) StageOut(n int) []float32 {
	s := m.scratch()
	s.staged = n
	if len(s.local.f) < n {
		//kylix:allow hotpathalloc:make -- grows to the largest stage the machine has seen
		s.local.f = make([]float32, n)
		s.bufs[0].stamp, s.bufs[1].stamp = 0, 0
	}
	return s.local.f[:n:n]
}

// StageOut is Machine.StageOut sized for the next Reduce on this Config:
// Width values per key of OutSet(), in key order.
//
//kylix:hotpath
func (c *Config) StageOut() []float32 {
	return c.mach.StageOut(len(c.outSet) * c.mach.opts.Width)
}

// scratch returns the machine's Scratch, building it — the
// topology-shaped parts: receive groups, staging, arena headers — on
// first use.
//
//kylix:coldpath
func (m *Machine) scratch() *Scratch {
	if m.cfg != nil {
		return m.cfg
	}
	L := m.bf.Layers()
	s := &Scratch{groupOf: make([][]int, L), groups: make([][][]int, L)}
	m.cfg = s
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
