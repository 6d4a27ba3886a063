package core

import (
	"kylix/internal/comm"
	"kylix/internal/sparse"
)

// piece is one value piece exchanged with one member of a layer group,
// in every form it takes: the float view the kernels read and write and
// the wire form — raw or packed — the send step ships it in. Raw or
// quantized is a property of the piece, not of the code that moves it:
// only the cold builder below and the send and land steps (reduce.go)
// look at Options.Quant.
type piece struct {
	// f is the raw wire form, and f.Vals the float view the send step
	// ships (raw) or encodes from (quantized): on the way down it is
	// re-pointed each round at a segment of the current value vector, on
	// the way up it is a fixed buffer (len = |inMaps[t]| * width)
	// refilled by GatherInto each round.
	f comm.Floats
	// pk is the packed side when Options.Quant is a lossy mode; nil
	// otherwise, so a raw piece weighs one pointer more than its header.
	pk *packed
}

// packed is the quantized side of a piece.
type packed struct {
	// q is the packed wire form; its Data, sized exactly by
	// sparse.QuantizedSize, is refilled by the quantize kernel each
	// round. Like the piece's value buffer, the bytes may still be
	// draining through a transport when the round ends, so each
	// generation has its own.
	q comm.QVals
	// res is the error-feedback residual of the piece sent (len =
	// len(f.Vals)): each round's quantization error is left here and
	// added to the next round's values before encoding. It is not scratch
	// in the reuse sense — it carries state from round to round and is
	// never cleared — so both generations share one. Nil under
	// Options.QuantNoFeedback.
	res []float32
	// land is where the member's own piece is dequantized on the way down
	// (len = |outMaps[t]| * width). The staged fold consumes it within the
	// layer on the same goroutine, so both generations share one. Unused
	// on the way up: segments of the assembly buffer are disjoint, so
	// pieces are dequantized straight into place.
	land []float32
}

// genBufs is one generation of a Config's reusable reduction buffers.
// Every slice a warm Reduce writes — layer accumulators, value pieces,
// the turnaround vector and the per-layer assembly buffers — is carved
// here once, so steady-state rounds allocate nothing.
type genBufs struct {
	// acc[i] is layer i+1's scatter-reduce accumulator
	// (len = |outUnion| * width).
	acc [][]float32
	// scatter[i][t] / gather[i][t] are the pieces exchanged with layer
	// i+1's member t on the way down / up.
	scatter, gather [][]piece
	// inVals is the bottom turnaround vector (len = |bottomIn| * width).
	inVals []float32
	// next[i] is the allgather assembly buffer below layer i+1
	// (len = |inSet| * width for i == 0, |layers[i-1].inUnion| * width
	// otherwise). next[0] is the vector handed back to the caller.
	next [][]float32
	// stage is the out-value staging buffer StageOut hands out
	// (len = |outSet| * width); nil until a caller asks for it, so
	// callers that pass Reduce their own vector never pay for it.
	stage []float32
}

// scratch is a Config's two-generation reduction arena. Rounds
// alternate generations: round N reuses the buffers of round N-2, which
// are quiescent by then — any rank entering round N has completed round
// N-1, which required a message from every group member at every layer,
// which those members only send after finishing round N-2 and therefore
// after consuming every round-N-2 payload addressed to them (tcpnet
// copies a payload for a peer before Send returns and is outside the
// argument; its self-sends go by reference, like memnet's, and are
// inside it).
// The generation-independent receive state —
// singleton receive groups, the arrival-order staging slots and their
// duplicate-delivery guards — is the machine-level cfgScratch's: one
// goroutine per machine, and each layer clears what it uses.
//
// Generations are built lazily: a fused ConfigureReduce performs one
// allgather and then often hands the Config to a caller that never
// Reduces again, so eagerly sizing both generations doubled the
// configuration pass's footprint for nothing (the BenchmarkConfigureReduce16
// regression tracked in EXPERIMENTS.md). The first flip into a
// generation pays its build; a Config that settles into steady-state
// reduction touches both exactly once.
type scratch struct {
	gen   int
	bufs  [2]genBufs
	ready [2]bool
}

// flip advances to the next generation — building it on first use — and
// returns its buffers.
func (c *Config) flip() *genBufs {
	c.scratch.gen ^= 1
	return c.generation(c.scratch.gen)
}

// generation returns a generation's buffers, building them on first use.
func (c *Config) generation(gen int) *genBufs {
	if !c.scratch.ready[gen] {
		c.buildGen(gen)
	}
	return &c.scratch.bufs[gen]
}

// StageOut returns the buffer the next Reduce on this Config should be
// fed from: Width values per key of OutSet(), in key order, owned by the
// arena generation that Reduce will flip to. Reduce's layer-1 scatter
// sends slices of its argument without copying, and a transport (or a
// slow replica) may still be reading them after the pass has returned
// everywhere else; a caller that cannot promise to leave its own vector
// alone that long fills this buffer instead and passes it to Reduce.
// The quiescence argument is the arena's (see scratch): the buffer is
// next written two rounds later.
//
//kylix:hotpath
func (c *Config) StageOut() ([]float32, error) {
	if c.poisoned {
		return nil, &PoisonedError{Rank: c.mach.Rank()}
	}
	g := c.generation(c.scratch.gen ^ 1)
	if g.stage == nil {
		c.buildStage(g)
	}
	return g.stage, nil
}

// buildStage sizes one generation's staging buffer.
//
//kylix:coldpath
func (c *Config) buildStage(g *genBufs) {
	g.stage = make([]float32, len(c.outSet)*c.mach.opts.Width)
}

// buildGen sizes one generation of the reduction arena; sizes are fully
// determined by the configuration, so every warm Reduce is
// allocation-free. The second generation to be built adopts the first's residuals and dequantize
// buffers (zero-initialised: the first round has no prior error to fold
// in) instead of making its own.
//
//kylix:coldpath
func (c *Config) buildGen(gen int) {
	w := c.mach.opts.Width
	quant := c.mach.opts.Quant
	s := &c.scratch
	g, twin := &s.bufs[gen], &s.bufs[gen^1]
	g.acc = make([][]float32, len(c.layers))
	g.scatter = make([][]piece, len(c.layers))
	g.gather = make([][]piece, len(c.layers))
	g.next = make([][]float32, len(c.layers))
	g.inVals = make([]float32, len(c.bottomIn())*w)
	for i := range c.layers {
		ls := &c.layers[i]
		below := c.inSet
		if i > 0 {
			below = c.layers[i-1].inUnion
		}
		g.acc[i] = make([]float32, len(ls.outUnion)*w)
		g.next[i] = make([]float32, len(below)*w)
		g.scatter[i] = make([]piece, len(ls.group))
		g.gather[i] = make([]piece, len(ls.group))
		var pks []packed
		if quant != sparse.QuantOff {
			pks = make([]packed, 2*len(ls.group))
		}
		for t := range ls.group {
			down, up := &g.scatter[i][t], &g.gather[i][t]
			nd, nu := int(ls.outOffsets[t+1]-ls.outOffsets[t])*w, len(ls.inMaps[t])*w
			up.f.Vals = make([]float32, nu)
			if pks == nil {
				continue
			}
			down.pk, up.pk = &pks[2*t], &pks[2*t+1]
			down.pk.q = comm.QVals{Mode: quant, N: nd, Data: make([]byte, sparse.QuantizedSize(quant, nd))}
			up.pk.q = comm.QVals{Mode: quant, N: nu, Data: make([]byte, sparse.QuantizedSize(quant, nu))}
			if s.ready[gen^1] {
				old := twin.scatter[i][t].pk
				down.pk.land, down.pk.res, up.pk.res = old.land, old.res, twin.gather[i][t].pk.res
				continue
			}
			down.pk.land = make([]float32, len(ls.outMaps[t])*w)
			if !c.mach.opts.QuantNoFeedback {
				down.pk.res, up.pk.res = make([]float32, nd), make([]float32, nu)
			}
		}
	}
	s.ready[gen] = true
}

// cfgScratch is the machine-level scratch of the configuration pass:
// everything transient whose shape depends only on the topology
// (receive groups, piece staging, union arenas). One instance serves
// every Configure / ConfigureReduce / Reconfigure on the Machine —
// machines are single-goroutine by contract, and nothing here survives
// a pass except as reusable capacity.
type cfgScratch struct {
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
	// out of the old unions for it (capacity kept across passes). Passes
	// on a machine never overlap and each layer clears what it uses.
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
}

// ensureCfgScratch builds the machine's configuration scratch on first
// use.
//
//kylix:coldpath
func (m *Machine) ensureCfgScratch() *cfgScratch {
	if m.cfg != nil {
		return m.cfg
	}
	L := m.bf.Layers()
	cs := &cfgScratch{groupOf: make([][]int, L), groups: make([][][]int, L)}
	maxDeg := 0
	for layer := 1; layer <= L; layer++ {
		group := m.bf.Group(m.Rank(), layer)
		d := len(group)
		if d > maxDeg {
			maxDeg = d
		}
		cs.groupOf[layer-1] = group
		cs.groups[layer-1] = make([][]int, d)
		for t := range group {
			cs.groups[layer-1][t] = group[t : t+1 : t+1]
		}
	}
	cs.got = make([]*comm.ConfigPiece, maxDeg)
	cs.inP = make([]sparse.Set, maxDeg)
	cs.outP = make([]sparse.Set, maxDeg)
	cs.valP = make([][]float32, maxDeg)
	cs.plP = make([]comm.Payload, maxDeg)
	cs.seen = make([]bool, maxDeg)
	cs.offs = make([]int32, 2*(maxDeg+1))
	m.cfg = cs
	return cs
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
