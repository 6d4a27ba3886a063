package core

import (
	"errors"
	"fmt"
	"slices"

	"kylix/internal/comm"
	"kylix/internal/obs"
	"kylix/internal/sparse"
)

// Configure runs the downward configuration pass (§III-A) for the given
// top-level index sets, which must be sorted key Sets (use
// sparse.NewSet to build them from raw indices). Every live machine must
// call Configure collectively with its own sets.
//
// At each layer the machine partitions its current in/out sets into
// equal hash sub-ranges, ships piece t to the group member owning
// sub-range t (its own piece included, through the transport, so traffic
// accounting matches the paper's Figure 5 convention), merges the pieces
// it receives into per-layer unions, and keeps the position maps that
// let reduction run in constant time per element.
//
// The pass allocates the routing state the returned Config retains —
// each layer's unions and maps in a block a direction, taken from the
// blocks earlier passes retired where one fits (Scratch) — and one block
// of payload headers per layer that ships more than markers. Transient
// state (receive staging, union work arenas, split offsets) lives in
// machine scratch, and a fused pass's values in the reduction arena.
//
// Configure continues from the Scratch's base when a predecessor Machine
// left it — the Config of the last configuration pass on this rank and
// namespace, handed on only after every rank finished that Machine's
// work without error (Options.Scratch), so every rank holds the same
// one. It then runs as a Reconfigure of the base: an unchanged piece
// crosses as a two-byte marker and a layer of markers keeps its unions,
// at the cost of an Equal scan of each set (of each piece, where a set
// changed), and the result is bit-identical to a Configure from nothing
// (Digest). A base of this Machine is never continued: a pass that
// failed on one rank only leaves the ranks' bases different, and no
// rank can tell.
func (m *Machine) Configure(inSet, outSet sparse.Set) (*Config, error) {
	cfg := m.newConfig()
	if b := m.cfg.base; b != nil && b.mach != m && !b.poisoned {
		cfg.continueFrom(b)
	}
	if _, err := cfg.configure("config", comm.KindConfig, inSet, outSet, nil); err != nil {
		return nil, err
	}
	return cfg, nil
}

// continueFrom starts c at b's state, sharing b's layer states (nothing
// writes them once built). b is a predecessor Machine's, so it belongs
// to a finished Run, whose Reductions are dead: c takes its residual
// slab, zeroed, as a fresh Config starts, and its stamp, so a pass that
// keeps every piece size skips the arena's carve.
func (c *Config) continueFrom(b *Config) {
	c.inSet, c.outSet, c.bottomMap, c.missing = b.inSet, b.outSet, b.bottomMap, b.missing
	copy(c.layers, b.layers)
	for i := range c.layers {
		c.layers[i].blocks = [2][]int32{} // b's blocks: never c's to retire
	}
	c.res, c.stamp = b.res, b.stamp
	clear(c.res)
}

// newConfig returns a Config with nothing stored: no layer has a split,
// unions or maps yet, so its first pass ships everything and builds
// everything.
func (m *Machine) newConfig() *Config {
	m.scratch()
	return &Config{mach: m, layers: make([]layerState, m.bf.Layers())}
}

// sameBoth is the shared both-directions-same marker. It is immutable
// (its lazily memoized encoding is a sync.Once), so every rank sends the
// same two-byte payload without allocating.
var sameBoth = &comm.ConfigPiece{InSame: true, OutSame: true}

// cfgPass is what one configuration pass threads down the layers.
type cfgPass struct {
	// kind is the tag kind; KindConfigReduce makes the pass fused.
	kind  comm.Kind
	round uint32
	// in/out are the sets the next layer splits: the caller's at the top,
	// each layer's unions below. wasIn/wasOut are what they were in the
	// pass the Config's stored state comes from.
	in, out, wasIn, wasOut sparse.Set
	// vals aligns with out in a fused pass: the caller's values at the
	// top, each layer's accumulator below.
	vals []float32
	// kept says every layer so far kept its split and its unions, and
	// bottomKept that the last one kept its unions.
	kept, bottomKept bool
}

// configure is the one driver of the configuration plane: Configure,
// ConfigureReduce and Reconfigure are this pass over a Config that has
// nothing stored (the first two) or the previous pass's state (the
// last), with values riding down or not. what names the entry point in
// errors. Failing validation is safe — nothing has been exchanged or
// overwritten yet, so the Config stays usable; errors past that point
// poison it, since some layers may then hold new state and others old.
func (c *Config) configure(what string, kind comm.Kind, inSet, outSet sparse.Set, outVals []float32) (res []float32, err error) {
	m := c.mach
	if c.poisoned {
		return nil, &PoisonedError{Rank: m.Rank()}
	}
	// A set equal to the currently configured one is sorted by
	// construction; the warm unchanged-sets path gets away with two O(1)
	// aliasing checks instead of full validation scans.
	if !(inSet.Equal(c.inSet) || inSet.IsSorted()) || !(outSet.Equal(c.outSet) || outSet.IsSorted()) {
		return nil, fmt.Errorf("core: rank %d %s: index sets must be sorted, deduplicated Sets", m.Rank(), what)
	}
	fused := kind == comm.KindConfigReduce
	if w := m.opts.Width; fused && len(outVals) != len(outSet)*w {
		return nil, fmt.Errorf("core: rank %d %s: got %d values, want %d (|out|=%d x width %d)",
			m.Rank(), what, len(outVals), len(outSet)*w, len(outSet), w)
	}
	defer func() {
		if err != nil {
			c.poisoned = true
		} else { // what the pass superseded becomes takeable
			m.cfg.done++
			m.cfg.poisonRetired()
		}
		m.cfg.base = c // a successor Machine's Configure continues from here unless poisoned
	}()
	tr := m.opts.Tracer
	if fused {
		tr.CountRound()
	}
	x := cfgPass{kind: kind, round: m.nextRound(), in: inSet, out: outSet,
		wasIn: c.inSet, wasOut: c.outSet, vals: outVals, kept: true}
	outer := tr.Begin(kind, 0)
	defer func() { outer.Err = err; tr.End(&outer) }()

	c.inSet, c.outSet = inSet, outSet
	for layer := 1; layer <= len(c.layers); layer++ {
		sp := tr.Begin(kind, layer)
		err := c.configureLayer(&x, layer, &sp)
		sp.Err = err
		tr.End(&sp)
		if err != nil {
			return nil, fmt.Errorf("core: rank %d %s layer %d: %w", m.Rank(), what, layer, err)
		}
	}
	// The bottom turnaround depends only on the bottom unions.
	if !x.bottomKept {
		if err := c.finishBottom(x.in, x.out); err != nil {
			return nil, err
		}
	}
	if !x.kept {
		// Piece sizes may have changed somewhere: the residuals no longer
		// line up, and the next quantized pass starts them over.
		c.res = nil
		m.cfg.stamps++
		c.stamp = m.cfg.stamps
	}
	if !fused {
		return nil, nil
	}
	g := c.flip()
	tr.CountArenaFlip()
	return c.gatherUp(x.vals, x.round, g)
}

// configureLayer is the one layer step of the configuration plane:
// split the current sets, send each member its piece — a marker in
// place of a direction whose piece is the one the previous pass sent —
// receive and check one piece per member, keep the layer's unions and
// maps when every piece arrived as a marker and rebuild them otherwise,
// and in a fused pass fold the values that rode along (the §III
// combined configure+reduce). The span accumulates the layer's wire
// bytes and group size.
func (c *Config) configureLayer(x *cfgPass, layer int, sp *obs.Span) error {
	m := c.mach
	cs := m.cfg
	ls := &c.layers[layer-1]
	group := cs.groupOf[layer-1]
	d := len(group)
	parent := m.bf.RangeAt(m.Rank(), layer-1)
	sp.Peers = d
	tag := m.tag(x.kind, layer, x.round)
	w := m.opts.Width
	fused := x.kind == comm.KindConfigReduce
	// stored: an earlier pass left this layer a split, unions and maps,
	// which say what it sent and received. Values are never stored, so a
	// piece that carries them is never the stored one.
	stored := ls.group != nil
	mark := stored && !fused

	// Sets that are the stored ones — O(1) to see when they alias, which
	// is what a layer that kept its unions hands the next — split the way
	// they did, into the pieces they were. Any other split is staged in
	// machine scratch and retained only if it moved.
	offs := cs.offs[:2*(d+1)]
	inOffs, outOffs := ls.inOffsets, ls.outOffsets
	same := mark && x.in.Equal(x.wasIn) && x.out.Equal(x.wasOut)
	if !same {
		inOffs = sparse.SplitOffsetsInto(offs[:d+1:d+1], x.in, parent, d)
		outOffs = sparse.SplitOffsetsInto(offs[d+1:], x.out, parent, d)
	}
	// The payload headers cannot come from machine scratch — transports
	// may retain the pointers past this call (fault-injecting fabrics
	// re-Send them) — but one block, made when the first piece that is
	// not all marker needs one, covers the whole group.
	var hdrs []comm.ConfigPiece
	for t, member := range group {
		in, out := sparse.Piece(x.in, inOffs, t), sparse.Piece(x.out, outOffs, t)
		inSame := same || mark && in.Equal(sparse.Piece(x.wasIn, ls.inOffsets, t))
		outSame := same || mark && out.Equal(sparse.Piece(x.wasOut, ls.outOffsets, t))
		p := sameBoth
		if !inSame || !outSame {
			if hdrs == nil {
				hdrs = make([]comm.ConfigPiece, d)
			}
			p = &hdrs[t]
			p.InSame, p.OutSame = inSame, outSame
			if !inSame {
				p.In = in
			}
			if !outSame {
				p.Out = out
			}
			if fused {
				p.HasVals, p.Vals = true, x.vals[int(outOffs[t])*w:int(outOffs[t+1])*w]
			}
		}
		m.stampOut(sp, p)
		if err := m.ep.Send(member, tag, p); err != nil {
			return err
		}
	}
	splitKept := hdrs == nil

	// Receive one piece per member, in arrival order, staged in the
	// machine scratch, and check each before anything is built on it.
	got, seen := cs.got[:d], cs.seen[:d]
	clear(seen)
	myRange := parent.Sub(d, m.bf.Digit(m.Rank(), layer))
	unionsKept := stored
	for received := 0; received < d; received++ {
		t, pl, err := m.recvPiece(layer-1, tag, seen)
		if err != nil {
			return err
		}
		from := group[t]
		q, ok := pl.(*comm.ConfigPiece)
		if !ok {
			return fmt.Errorf("piece from %d: unexpected payload %T", from, pl)
		}
		if q.HasVals && !fused {
			return fmt.Errorf("piece from %d carries values but the pass is not fused", from)
		}
		if fused && !q.HasVals {
			return fmt.Errorf("piece from %d carries no values but the pass is fused", from)
		}
		if err := landSet(q.InSame, q.In, stored, myRange); err != nil {
			return fmt.Errorf("in piece from %d: %w", from, err)
		}
		if err := landSet(q.OutSame, q.Out, stored, myRange); err != nil {
			return fmt.Errorf("out piece from %d: %w", from, err)
		}
		nOut := len(q.Out)
		if q.OutSame {
			nOut = len(ls.outMaps[t])
		}
		if fused && len(q.Vals) != nOut*w {
			return fmt.Errorf("piece from %d has %d values, want %d", from, len(q.Vals), nOut*w)
		}
		got[t] = q
		unionsKept = unionsKept && q.InSame && q.OutSame
		m.stampIn(sp, pl)
	}

	if !splitKept {
		moved := slices.Clone(offs)
		ls.inOffsets, ls.outOffsets = moved[:d+1:d+1], moved[d+1:]
	}
	wasIn, wasOut := ls.inUnion, ls.outUnion
	if !unionsKept {
		// Unions and maps depend only on the received pieces. A marker
		// stands for the piece received last time, which the Config keeps
		// no copy of: it is read back out of the union it was merged into.
		inP, outP := cs.inP[:d], cs.outP[:d]
		cs.keys = cs.keys[:0]
		for t, q := range got {
			if inP[t] = q.In; q.InSame {
				inP[t] = cs.mergedPiece(ls.inUnion, ls.inMaps[t])
			}
			if outP[t] = q.Out; q.OutSame {
				outP[t] = cs.mergedPiece(ls.outUnion, ls.outMaps[t])
			}
		}
		if ls.blocks[0] != nil {
			cs.supersede(ls)
		}
		m.buildUnions(ls, inP, outP)
		clear(inP)
		clear(outP)
	}
	if stored {
		m.opts.Tracer.CountReconfigureLayer(unionsKept)
	}
	ls.group = group
	x.kept = x.kept && splitKept && unionsKept
	x.bottomKept = unionsKept
	x.in, x.out, x.wasIn, x.wasOut = ls.inUnion, ls.outUnion, wasIn, wasOut

	if fused {
		// The accumulator, the next layer's vals, rides in payloads past
		// this call like the stage: it extends the stage of the generation
		// the gather flips to, made fresh until that flip grows the slab.
		g := &cs.bufs[cs.gen^1]
		acc := take(g.f, &g.staged, len(ls.outUnion)*w)
		if acc == nil {
			acc = make([]float32, len(ls.outUnion)*w)
		}
		sparse.Fill(acc, m.opts.Reducer.Identity())
		for t, q := range got {
			sparse.CombineInto(m.opts.Reducer, acc, ls.outMaps[t], q.Vals, w)
		}
		x.vals = acc
	}
	clear(got) // do not pin received payloads past the layer
	return nil
}

// landSet is one direction of the configuration land step. A marker
// needs a stored piece to stand for; a shipped piece must lie in the
// hash sub-range this rank owns at the layer, because it feeds the
// layer's union and the next layer's split, which assume that.
func landSet(same bool, shipped sparse.Set, stored bool, r sparse.Range) error {
	if !same {
		return sparse.CheckInRange(shipped, r)
	}
	if !stored {
		return errors.New("same-marker but no stored piece")
	}
	return nil
}

// mergedPiece reads a received piece back out of the union it was
// merged into: its position map sends the piece's j-th key to
// union[m[j]]. The copy lives in machine scratch, like every piece
// between its arrival and the rebuild of the unions.
func (cs *Scratch) mergedPiece(union sparse.Set, m []int32) sparse.Set {
	at := len(cs.keys)
	cs.keys = slices.Grow(cs.keys, len(m))
	for _, pos := range m {
		cs.keys = append(cs.keys, union[pos])
	}
	return cs.keys[at:len(cs.keys):len(cs.keys)]
}

// buildUnions computes a layer's in/out unions and position maps from
// the received pieces. Each union is merged in the machine's reusable
// arena and cloned out, and a direction's d position maps are carved
// from a single data block.
//
// When every member sent the same set in both directions — what a
// caller reducing over one vertex set produces at the top, and what a
// symmetric layer hands the next, since its two unions are then one
// slice — the layer is symmetric: one union and one map family serve
// both directions (outUnion/outMaps alias inUnion/inMaps). Nothing
// writes a layerState's unions or maps after this, so the sharing is
// invisible to the reduction and to Digest. The comparison is O(1) per
// piece on every transport: zero-copy ones hand over the one slice, and
// a symmetric piece decodes with Out aliasing In.
func (m *Machine) buildUnions(ls *layerState, inPieces, outPieces []sparse.Set) {
	ls.inUnion, ls.inMaps, ls.blocks[0] = m.unionMaps(inPieces)
	for t, p := range inPieces {
		if !p.Equal(outPieces[t]) {
			ls.outUnion, ls.outMaps, ls.blocks[1] = m.unionMaps(outPieces)
			return
		}
	}
	ls.outUnion, ls.outMaps, ls.blocks[1] = ls.inUnion, ls.inMaps, ls.blocks[0]
}

// unionMaps is one direction of buildUnions: the retained union of the
// pieces, their position maps into it, and the one block the maps are
// carved from, for supersede to retire. Union and block are retired ones
// where one fits.
func (m *Machine) unionMaps(pieces []sparse.Set) (sparse.Set, [][]int32, []int32) {
	s := m.cfg
	total := 0
	for _, p := range pieces {
		total += len(p)
	}
	block := s.intBlocks.take(total, s.done)
	if block == nil {
		block = make([]int32, total)
	}
	maps, data := make([][]int32, len(pieces)), block
	for t, p := range pieces {
		maps[t], data = data[:len(p):len(p)], data[len(p):]
	}
	merged := s.uni.UnionMaps(pieces, maps)
	union := sparse.Set(s.keyBlocks.take(len(merged), s.done))
	if union == nil {
		union = make(sparse.Set, len(merged))
	}
	copy(union, merged)
	return union, maps, block
}

// finishBottom builds the turnaround map from the bottom in-union into
// the bottom out-union and enforces Strict coverage. Equal unions turn
// around by identity, which a nil map stands for; with no layer the
// bottom sets are the caller's, and a gather keeps the result off the
// caller's vector.
func (cfg *Config) finishBottom(inBottom, outBottom sparse.Set) error {
	if len(cfg.layers) > 0 && inBottom.Equal(outBottom) {
		cfg.bottomMap, cfg.missing = nil, 0
		return nil
	}
	var missing int
	cfg.bottomMap, missing = sparse.PartialPositionMap(inBottom, outBottom)
	cfg.missing = missing
	if cfg.mach.opts.Strict && missing > 0 {
		return fmt.Errorf("core: rank %d: %d requested in-indices have no contributor (strict mode)",
			cfg.mach.Rank(), missing)
	}
	return nil
}
