package core

import (
	"kylix/internal/comm"
	"kylix/internal/sparse"
)

// genBufs is one generation of a Config's reusable reduction buffers.
// Every slice a warm Reduce writes — layer accumulators, send payload
// headers, gather extraction buffers, the turnaround vector and the
// per-layer assembly buffers — is carved here once, so steady-state
// rounds allocate nothing.
type genBufs struct {
	// acc[i] is layer i+1's scatter-reduce accumulator
	// (len = |outUnion| * width).
	acc [][]float32
	// scatter[i][t] is the reusable send header for the scatter piece to
	// layer i+1's member t; its Vals is re-pointed at a segment of the
	// current value vector each round.
	scatter [][]comm.Floats
	// gather[i][t] is the send header for the allgather piece to layer
	// i+1's member t; its Vals is a fixed buffer (len = |inMaps[t]| *
	// width) refilled by GatherInto each round.
	gather [][]comm.Floats
	// inVals is the bottom turnaround vector (len = |bottomIn| * width).
	inVals []float32
	// next[i] is the allgather assembly buffer below layer i+1
	// (len = |inSet| * width for i == 0, |layers[i-1].inUnion| * width
	// otherwise). next[0] is the vector handed back to the caller.
	next [][]float32
	// qscatter/qgather mirror scatter/gather when Options.Quant is a
	// lossy mode: reusable QVals send headers whose Data (sized exactly
	// by sparse.QuantizedSize) is refilled by the quantize kernels each
	// round. Like gather value buffers, the Data bytes may still be
	// draining through a transport when the round ends, so they live in
	// the two-generation arena and are only rewritten once quiescent.
	// Nil when quantization is off.
	qscatter [][]comm.QVals
	qgather  [][]comm.QVals
	// stage is the out-value staging buffer StageOut hands out
	// (len = |outSet| * width); nil until a caller asks for it, so
	// callers that pass Reduce their own vector never pay for it.
	stage []float32
}

// scratch is a Config's two-generation reduction arena plus the
// generation-independent receive state. Rounds alternate generations:
// round N reuses the buffers of round N-2, which are quiescent by then —
// any rank entering round N has completed round N-1, which required a
// message from every group member at every layer, which those members
// only send after finishing round N-2 and therefore after consuming
// every round-N-2 payload addressed to them. (Send-side transports
// either finish reading a payload before the receiver can complete the
// round it belongs to, or deep-copy it up front, so the same bound
// covers them.)
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
	// stage holds arrival-order receipts until they can be folded in
	// canonical member order; sized to the widest layer group. Non-nil
	// entries double as duplicate-delivery guards. Shared from the
	// machine-level cfgScratch (one goroutine per machine, and each
	// Reduce clears it before use).
	stage []*comm.Floats
	// groups[i][t] is the singleton group {layers[i].group[t]} — the
	// RecvGroup argument that makes receives pure arrival-order with no
	// cancellation. Shared from the machine-level cfgScratch: the layer
	// groups are fixed by the topology, not by the Config.
	groups [][][]int
	// quant is the quantization working state (dequantize landing
	// buffers and error-feedback residuals); nil when Options.Quant is
	// off. It lives on the scratch for lifetime convenience, but the
	// residuals are not scratch in the reuse sense: they carry state
	// from round to round and must never be cleared between rounds.
	quant *quantState
}

// quantState is a Config's quantization working state.
type quantState struct {
	// recv[i][t] is the dequantize landing buffer for the scatter piece
	// received from layer i+1's member t (len = |outMaps[t]| * width).
	// Received QVals decode into it and the existing staged-fold
	// machinery consumes it within the same layer on the same
	// goroutine, so one instance (not one per generation) suffices.
	recv [][]comm.Floats
	// resScatter[i][t] is the error-feedback residual of the scatter
	// piece sent to layer i+1's member t (len = the piece's value
	// count); resGather[i][t] likewise for the allgather piece
	// (len = |inMaps[t]| * width). Each round's quantization error is
	// left here and added to the next round's values before encoding.
	// Nil (kernels run without feedback) when Options.QuantNoFeedback.
	resScatter [][][]float32
	resGather  [][][]float32
}

// flip advances to the next generation — building it on first use — and
// returns its buffers.
func (c *Config) flip(s *scratch) *genBufs {
	s.gen ^= 1
	return c.generation(s, s.gen)
}

// generation returns a generation's buffers, building them on first use.
func (c *Config) generation(s *scratch, gen int) *genBufs {
	if !s.ready[gen] {
		c.buildGen(s, gen)
	}
	return &s.bufs[gen]
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
	s := c.ensureScratch()
	g := c.generation(s, s.gen^1)
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

// ensureScratch builds the Config's receive state on first use; the
// per-generation value buffers follow lazily at each generation's first
// flip. Sizes are fully determined by the configuration, so every warm
// Reduce is allocation-free.
//
//kylix:coldpath
func (c *Config) ensureScratch() *scratch {
	if c.scratch != nil {
		return c.scratch
	}
	cs := c.mach.ensureCfgScratch()
	c.scratch = &scratch{stage: cs.stage, groups: cs.groups}
	if c.mach.opts.Quant != sparse.QuantOff {
		c.scratch.quant = c.buildQuantState()
	}
	return c.scratch
}

// buildQuantState sizes the dequantize landing buffers and, unless
// feedback is disabled, the per-piece error-feedback residuals
// (zero-initialised: the first round has no prior error to fold in).
//
//kylix:coldpath
func (c *Config) buildQuantState() *quantState {
	w := c.mach.opts.Width
	ef := !c.mach.opts.QuantNoFeedback
	qs := &quantState{recv: make([][]comm.Floats, len(c.layers))}
	if ef {
		qs.resScatter = make([][][]float32, len(c.layers))
		qs.resGather = make([][][]float32, len(c.layers))
	}
	for i := range c.layers {
		ls := &c.layers[i]
		qs.recv[i] = make([]comm.Floats, len(ls.group))
		if ef {
			qs.resScatter[i] = make([][]float32, len(ls.group))
			qs.resGather[i] = make([][]float32, len(ls.group))
		}
		for t := range ls.group {
			qs.recv[i][t].Vals = make([]float32, len(ls.outMaps[t])*w)
			if ef {
				qs.resScatter[i][t] = make([]float32, int(ls.outOffsets[t+1]-ls.outOffsets[t])*w)
				qs.resGather[i][t] = make([]float32, len(ls.inMaps[t])*w)
			}
		}
	}
	return qs
}

// buildGen sizes one generation of the reduction arena.
//
//kylix:coldpath
func (c *Config) buildGen(s *scratch, gen int) {
	w := c.mach.opts.Width
	quant := c.mach.opts.Quant
	g := &s.bufs[gen]
	g.acc = make([][]float32, len(c.layers))
	g.scatter = make([][]comm.Floats, len(c.layers))
	g.gather = make([][]comm.Floats, len(c.layers))
	g.next = make([][]float32, len(c.layers))
	g.inVals = make([]float32, len(c.bottomIn())*w)
	if quant != sparse.QuantOff {
		g.qscatter = make([][]comm.QVals, len(c.layers))
		g.qgather = make([][]comm.QVals, len(c.layers))
	}
	for i := range c.layers {
		ls := &c.layers[i]
		g.acc[i] = make([]float32, len(ls.outUnion)*w)
		g.scatter[i] = make([]comm.Floats, len(ls.group))
		g.gather[i] = make([]comm.Floats, len(ls.group))
		if quant != sparse.QuantOff {
			g.qscatter[i] = make([]comm.QVals, len(ls.group))
			g.qgather[i] = make([]comm.QVals, len(ls.group))
		}
		for t := range ls.group {
			g.gather[i][t].Vals = make([]float32, len(ls.inMaps[t])*w)
			if quant != sparse.QuantOff {
				ns := int(ls.outOffsets[t+1]-ls.outOffsets[t]) * w
				g.qscatter[i][t] = comm.QVals{Mode: quant, N: ns,
					Data: make([]byte, sparse.QuantizedSize(quant, ns))}
				ng := len(ls.inMaps[t]) * w
				g.qgather[i][t] = comm.QVals{Mode: quant, N: ng,
					Data: make([]byte, sparse.QuantizedSize(quant, ng))}
			}
		}
		below := c.inSet
		if i > 0 {
			below = c.layers[i-1].inUnion
		}
		g.next[i] = make([]float32, len(below)*w)
	}
	s.ready[gen] = true
}

// cfgScratch is the machine-level scratch of the configuration pass:
// everything transient that configureLayer used to allocate per call
// but whose shape depends only on the topology (receive groups, piece
// staging, union arenas). One instance serves every Configure /
// ConfigureReduce / Reconfigure on the Machine — machines are
// single-goroutine by contract, and nothing here survives a pass except
// as reusable capacity.
type cfgScratch struct {
	// groupOf[layer-1] is this machine's layer group (topology-fixed;
	// retained read-only by every Config's layerStates).
	groupOf [][]int
	// groups[layer-1][t] is the singleton receive group {groupOf[t]}.
	groups [][][]int
	// stage is the reduction's arrival-order staging (see scratch.stage).
	stage []*comm.Floats
	// inP/outP/valP/seen stage one layer's received configuration
	// pieces, indexed by group slot; sized to the widest layer.
	inP, outP []sparse.Set
	valP      [][]float32
	seen      []bool
	// uni is the tree-union arena; unions are cloned out of it into the
	// retained layerState, so only the final deduplicated keys are paid
	// for per configuration.
	uni sparse.UnionScratch
	// offs stages candidate split offsets during Reconfigure's
	// compare-before-commit step (2*(maxDeg+1) entries).
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
	cs.stage = make([]*comm.Floats, maxDeg)
	cs.inP = make([]sparse.Set, maxDeg)
	cs.outP = make([]sparse.Set, maxDeg)
	cs.valP = make([][]float32, maxDeg)
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
