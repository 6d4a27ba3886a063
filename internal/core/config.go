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
// of payload headers per layer that ships more than markers. Receive
// staging lives in machine scratch, the kernels' work space is borrowed
// per call (kernelWork), a fused pass's values live in the arena.
//
// Configure continues from the machine's base when an earlier run of
// passes left it — the Config of the machine's last configuration pass
// before its latest Reset, which the caller makes only after every rank
// finished those passes without error, so every rank holds the same
// one. It then runs as a Reconfigure of the base: an unchanged piece
// crosses as a two-byte marker, a changed one as a delta where that is
// smaller, and a layer of markers keeps its unions, at the cost of an
// Equal scan of each set (of a merge of each piece, where a set
// changed), and the result is bit-identical to a Configure from nothing
// (Digest). A base of the current run is never continued: a pass that
// failed on one rank only leaves the ranks' bases different, and no
// rank can tell.
func (m *Machine) Configure(inSet, outSet sparse.Set) (*Config, error) {
	cfg := m.newConfig()
	if s := m.cfg; s.carried && !s.base.poisoned {
		cfg.continueFrom(s.base)
	}
	if _, err := cfg.configure("config", comm.KindConfig, inSet, outSet, nil); err != nil {
		return nil, err
	}
	return cfg, nil
}

// continueFrom starts c at b's state, sharing b's layer states (nothing
// writes them once built). b belongs to an earlier run of passes, whose
// Reductions are dead by the caller's contract: c takes its residual
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
			m.cfg.abandon()
		} else { // what the pass superseded becomes takeable
			m.cfg.done++
			m.cfg.poisonRetired()
		}
		m.cfg.base, m.cfg.carried = c, false // the next run's Configure continues from here unless poisoned
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
	// re-Send them) — but one block, made when the sets moved, covers the
	// whole group. A piece that is all marker ships as sameBoth.
	var hdrs []comm.ConfigPiece
	if !same {
		hdrs = make([]comm.ConfigPiece, d)
		for t := range hdrs {
			hdrs[t].In, hdrs[t].Out = sparse.Piece(x.in, inOffs, t), sparse.Piece(x.out, outOffs, t)
		}
		if mark {
			c.spell(x, ls, hdrs)
		}
	}
	for t, member := range group {
		p := sameBoth
		if !same && !(hdrs[t].InSame && hdrs[t].OutSame) {
			p = &hdrs[t]
			if fused {
				p.HasVals, p.Vals = true, x.vals[int(outOffs[t])*w:int(outOffs[t+1])*w]
			}
		}
		m.stampOut(sp, p)
		if err := m.ep.Send(member, tag, p); err != nil {
			return err
		}
	}
	splitKept := same // pieces that all match the last ones make the last sets

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
		if err := landSet(q.InSame, q.InDelta, q.In, stored, myRange); err != nil {
			return fmt.Errorf("in piece from %d: %w", from, err)
		}
		if err := landSet(q.OutSame, q.OutDelta, q.Out, stored, myRange); err != nil {
			return fmt.Errorf("out piece from %d: %w", from, err)
		}
		nOut := len(q.Out)
		switch {
		case q.OutSame:
			nOut = len(ls.outMaps[t])
		case q.OutDelta != nil:
			nOut = q.OutDelta.Len
		}
		if q.InDelta != nil || q.OutDelta != nil {
			m.opts.Tracer.CountDeltaPiece()
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
		// A delta is applied to that piece; a direction spelled as the other
		// is, over a symmetric layer, is the other's piece.
		inP, outP := cs.inP[:d], cs.outP[:d]
		kw := borrowWork()
		defer workPool.Put(kw) // nothing below blocks
		symLayer := stored && &ls.inMaps[0] == &ls.outMaps[0]
		for t, q := range got {
			var err error
			if inP[t], err = kw.receivedPiece(q.In, q.InSame, q.InDelta, ls.inUnion, ls.inMaps, t); err != nil {
				return fmt.Errorf("in piece from %d: %w", group[t], err)
			}
			if symLayer && q.InSame == q.OutSame && q.InDelta == q.OutDelta && (q.InSame || q.InDelta != nil) {
				outP[t] = inP[t]
			} else if outP[t], err = kw.receivedPiece(q.Out, q.OutSame, q.OutDelta, ls.outUnion, ls.outMaps, t); err != nil {
				return fmt.Errorf("out piece from %d: %w", group[t], err)
			}
		}
		if ls.blocks[0] != nil {
			cs.supersede(ls)
		}
		m.buildUnions(ls, &kw.uni, inP, outP)
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
		// The accumulator, the next layer's vals, rides down in payloads
		// like the stage: it extends the stage in the pass-local slab, made
		// fresh until the gather's flip grows the slab.
		acc := take(cs.local.f, &cs.staged, len(ls.outUnion)*w)
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
// needs a stored piece to stand for, and a delta one to apply to; keys a
// direction brings must lie in the hash sub-range this rank owns at the
// layer, because they feed the layer's union and the next layer's split,
// which assume that.
func landSet(same bool, delta *comm.PieceDelta, shipped sparse.Set, stored bool, r sparse.Range) error {
	switch {
	case (same || delta != nil) && !stored:
		return errors.New("same-marker or delta but no stored piece")
	case delta != nil:
		return sparse.CheckInRange(delta.Added, r)
	}
	return sparse.CheckInRange(shipped, r)
}

// receivedPiece is a direction's piece as its sender holds it now:
// shipped in full, or the piece received from it last time — read back
// out of the union it was merged into, whose position map sends its
// j-th key to union[maps[t][j]] — for a marker, with a delta applied
// for a delta: the kept keys gathered run by run, the added ones merged
// in as they come. The copies live in the borrowed work space, until
// the rebuild of the unions.
func (kw *kernelWork) receivedPiece(shipped sparse.Set, same bool, delta *comm.PieceDelta, union sparse.Set, maps [][]int32, t int) (sparse.Set, error) {
	if !same && delta == nil {
		return shipped, nil
	}
	m, n := maps[t], len(maps[t])
	var rm []int32
	var add sparse.Set
	if delta != nil {
		if rm, add, n = delta.Removed, delta.Added, delta.Len; len(m)-len(rm)+len(add) != n {
			return nil, fmt.Errorf("delta length %d, its counts give %d", n, len(m)-len(rm)+len(add))
		}
	}
	at := len(kw.keys)
	kw.keys = slices.Grow(kw.keys, n)[:at+n]
	out := kw.keys[at : at+n : at+n]
	w, j, from, next := 0, 0, 0, noKey // next is add[j], or past every key
	if len(add) > 0 {
		next = add[0]
	}
	for i := 0; i <= len(rm); i++ {
		to := len(m)
		if i < len(rm) {
			if to = int(rm[i]); to < from || to >= len(m) {
				return nil, fmt.Errorf("delta removes position %d of a %d-key piece, after %d", to, len(m), from-1)
			}
		}
		for _, pos := range m[from:to] {
			k := union[pos]
			for next < k {
				if out[w], w, j, next = next, w+1, j+1, noKey; j < len(add) {
					next = add[j]
				}
			}
			if next == k {
				return nil, fmt.Errorf("delta adds index %d, which the kept piece holds", k.Index())
			}
			out[w], w = k, w+1
		}
		from = to + 1
	}
	copy(out[w:], add[j:])
	return out, nil
}

// noKey sorts after every Key: indices are int32, so a key's low half
// is never all ones.
const noKey = ^sparse.Key(0)

// spell rewrites, in a pass where markers are legal, the headers of a
// layer whose sets moved: one merge a piece (sparse.Diff) spells each
// direction as a marker where it is the piece sent last pass, as a delta
// against that piece where the keys dropped and added are fewer than it
// holds — a rule of content alone, so layouts stay deterministic — and
// leaves it in full else; equal in and out pieces over equal ones share
// one merge and one delta. The piece a rank sends itself is a marker or
// in full: it crosses no wire, so a delta would only cost both ends a
// merge. Diff writes into a borrowed work space, sized for the whole
// layer; the deltas ride in payloads, so they then move into one block of
// positions and one of keys of their own size, which with the block of
// their headers are retired at once but stamped a pass later than
// supersede stamps: peers read them during this pass and are done with
// them once this rank has finished the next.
func (c *Config) spell(x *cfgPass, ls *layerState, hdrs []comm.ConfigPiece) {
	cs, self := c.mach.cfg, memberIndex(ls.group, c.mach.Rank())
	sym := x.in.Equal(x.out) && x.wasIn.Equal(x.wasOut)
	np, nk, nd := len(x.wasIn), len(x.in), len(hdrs) // Diff's room
	if !sym {
		np, nk, nd = np+len(x.wasOut), nk+len(x.out), 2*nd
	}
	kw := borrowWork()
	defer workPool.Put(kw) // spell runs before the layer's sends
	kw.pos, kw.keys = slices.Grow(kw.pos[:0], np)[:np], slices.Grow(kw.keys, nk)[:nk]
	pos, keys, deltas := kw.pos, kw.keys, cs.deltaBlocks.get(nd, cs.done)
	cs.deltaBlocks.put(deltas, cs.done+2)
	np, nk, nd = 0, 0, 0
	// one spells member t's piece now against was: a marker, a delta, or
	// (neither) in full.
	one := func(was, now sparse.Set, t int) (bool, *comm.PieceDelta) {
		if t == self {
			return was.Equal(now), nil
		}
		nr, na := sparse.Diff(was, now, pos[np:], keys[nk:])
		if nr+na == 0 || nr+na >= len(now) {
			return nr+na == 0, nil
		}
		deltas[nd] = comm.PieceDelta{Removed: pos[np : np+nr], Added: keys[nk : nk+na], Len: len(now)}
		np, nk, nd = np+nr, nk+na, nd+1
		return false, &deltas[nd-1]
	}
	for t := range hdrs {
		p := &hdrs[t]
		if p.InSame, p.InDelta = one(sparse.Piece(x.wasIn, ls.inOffsets, t), p.In, t); p.InSame || p.InDelta != nil {
			p.In = nil
		}
		if sym {
			p.Out, p.OutSame, p.OutDelta = p.In, p.InSame, p.InDelta
		} else if p.OutSame, p.OutDelta = one(sparse.Piece(x.wasOut, ls.outOffsets, t), p.Out, t); p.OutSame || p.OutDelta != nil {
			p.Out = nil
		}
	}
	if nd > 0 {
		pos, keys = cs.intBlocks.get(np, cs.done), cs.keyBlocks.get(nk, cs.done)
		cs.intBlocks.put(pos, cs.done+2)
		cs.keyBlocks.put(keys, cs.done+2)
		for i := range deltas[:nd] {
			d := &deltas[i]
			nr, na := copy(pos, d.Removed), copy(keys, d.Added)
			d.Removed, d.Added, pos, keys = pos[:nr:nr], keys[:na:na], pos[nr:], keys[na:]
		}
	}
}

// buildUnions computes a layer's in/out unions and position maps from
// the received pieces. Each union is merged in the borrowed arena u and
// copied out, and a direction's d position maps are carved
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
func (m *Machine) buildUnions(ls *layerState, u *sparse.UnionScratch, inPieces, outPieces []sparse.Set) {
	ls.inUnion, ls.inMaps, ls.blocks[0] = m.unionMaps(u, inPieces)
	for t, p := range inPieces {
		if !p.Equal(outPieces[t]) {
			ls.outUnion, ls.outMaps, ls.blocks[1] = m.unionMaps(u, outPieces)
			return
		}
	}
	ls.outUnion, ls.outMaps, ls.blocks[1] = ls.inUnion, ls.inMaps, ls.blocks[0]
}

// unionMaps is one direction of buildUnions: the retained union of the
// pieces, their position maps into it, and the one block the maps are
// carved from, for supersede to retire. Union and block are retired ones
// where one fits.
func (m *Machine) unionMaps(u *sparse.UnionScratch, pieces []sparse.Set) (sparse.Set, [][]int32, []int32) {
	s := m.cfg
	total := 0
	for _, p := range pieces {
		total += len(p)
	}
	block := s.intBlocks.get(total, s.done)
	maps, data := make([][]int32, len(pieces)), block
	for t, p := range pieces {
		maps[t], data = data[:len(p):len(p)], data[len(p):]
	}
	merged := u.UnionMaps(pieces, maps)
	union := sparse.Set(s.keyBlocks.get(len(merged), s.done))
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
