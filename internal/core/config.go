package core

import (
	"fmt"

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
// The pass allocates only what the returned Config retains: transient
// state (receive staging, union work arenas, split offsets) lives in a
// machine-level scratch reused across configurations, and per-layer
// retained slices are carved from single blocks.
func (m *Machine) Configure(inSet, outSet sparse.Set) (cfgOut *Config, err error) {
	if !inSet.IsSorted() || !outSet.IsSorted() {
		return nil, fmt.Errorf("core: Configure requires sorted, deduplicated Sets")
	}
	round := m.nextRound()
	cfg := &Config{mach: m, inSet: inSet, outSet: outSet,
		layers: make([]layerState, m.bf.Layers())}
	tr := m.opts.Tracer
	outer := tr.Begin(comm.KindConfig, 0)
	defer func() { outer.Err = err; tr.End(&outer) }()

	inCur, outCur := inSet, outSet
	for layer := 1; layer <= m.bf.Layers(); layer++ {
		ls := &cfg.layers[layer-1]
		sp := tr.Begin(comm.KindConfig, layer)
		err := m.configureLayer(ls, layer, round, inCur, outCur, nil, nil, nil, &sp)
		sp.Err = err
		tr.End(&sp)
		if err != nil {
			return nil, fmt.Errorf("core: rank %d config layer %d: %w", m.Rank(), layer, err)
		}
		inCur, outCur = ls.inUnion, ls.outUnion
	}
	if err := cfg.finishBottom(inCur, outCur); err != nil {
		return nil, err
	}
	return cfg, nil
}

// configureLayer executes one layer of the downward pass, filling the
// caller's layerState. When vals is non-nil the pass is fused with
// reduction: out pieces carry their values, and the returned accumulator
// (via *accOut) holds the combined layer result (the §III combined
// configure+reduce). The caller's span sp accumulates the layer's wire
// bytes and group size.
func (m *Machine) configureLayer(ls *layerState, layer int, round uint32, inCur, outCur sparse.Set, vals []float32, accOut *[]float32, tagKindOverride *comm.Kind, sp *obs.Span) error {
	cs := m.ensureCfgScratch()
	d := m.bf.Degree(layer)
	group := cs.groupOf[layer-1]
	parent := m.bf.RangeAt(m.Rank(), layer-1)
	sp.Peers = d

	// Both offset slices come from one retained block.
	offs := make([]int32, 2*(d+1))
	ls.group = group
	ls.inOffsets = sparse.SplitOffsetsInto(offs[:d+1:d+1], inCur, parent, d)
	ls.outOffsets = sparse.SplitOffsetsInto(offs[d+1:], outCur, parent, d)

	kind := comm.KindConfig
	if tagKindOverride != nil {
		kind = *tagKindOverride
	}
	tag := m.tag(kind, layer, round)
	w := m.opts.Width

	// Send piece t to the member owning sub-range t. The payload headers
	// cannot come from machine scratch — transports may retain the
	// pointers past this call (fault-injecting fabrics re-Send them) —
	// but one block covers the whole group.
	if vals == nil {
		hdrs := make([]comm.InOut, d)
		for t, member := range group {
			p := &hdrs[t]
			p.In = sparse.Piece(inCur, ls.inOffsets, t)
			p.Out = sparse.Piece(outCur, ls.outOffsets, t)
			m.stampOut(sp, p)
			if err := m.ep.Send(member, tag, p); err != nil {
				return err
			}
		}
	} else {
		hdrs := make([]comm.Combined, d)
		for t, member := range group {
			p := &hdrs[t]
			p.In = sparse.Piece(inCur, ls.inOffsets, t)
			p.Out = sparse.Piece(outCur, ls.outOffsets, t)
			p.Vals = vals[int(ls.outOffsets[t])*w : int(ls.outOffsets[t+1])*w]
			m.stampOut(sp, p)
			if err := m.ep.Send(member, tag, p); err != nil {
				return err
			}
		}
	}

	// Receive one piece per member, in arrival order, staged in the
	// machine scratch.
	inP, outP, valP, seen := cs.inP[:d], cs.outP[:d], cs.valP[:d], cs.seen[:d]
	for t := range seen {
		seen[t] = false
	}
	myRange := parent.Sub(d, m.bf.Digit(m.Rank(), layer))
	for received := 0; received < d; {
		from, p, err := m.ep.RecvGroup(cs.groups[layer-1], tag)
		if err != nil {
			return fmt.Errorf("recv: %w", err)
		}
		t := memberIndex(group, from)
		if t < 0 {
			return fmt.Errorf("piece from %d outside group", from)
		}
		if seen[t] {
			continue // duplicate delivery
		}
		switch q := p.(type) {
		case *comm.InOut:
			inP[t], outP[t] = q.In, q.Out
		case *comm.Combined:
			inP[t], outP[t], valP[t] = q.In, q.Out, q.Vals
		default:
			return fmt.Errorf("unexpected payload %T from %d", p, from)
		}
		// Both directions feed this layer's unions and the next layer's
		// split, which assumes everything lies in this rank's sub-range.
		if err := sparse.CheckInRange(inP[t], myRange); err != nil {
			return fmt.Errorf("in piece from %d: %w", from, err)
		}
		if err := sparse.CheckInRange(outP[t], myRange); err != nil {
			return fmt.Errorf("out piece from %d: %w", from, err)
		}
		m.stampIn(sp, p)
		seen[t] = true
		received++
	}
	m.buildUnions(ls, inP, outP)

	if vals != nil {
		// The fused accumulator is freshly allocated, not arena-carved:
		// it becomes the next layer's vals, whose segments outlive this
		// call inside retained Combined payloads.
		acc := make([]float32, len(ls.outUnion)*w)
		if id := m.opts.Reducer.Identity(); id != 0 {
			m.pool.Fill(acc, id)
		}
		for t := range group {
			m.opts.Tracer.CountCombineShards(m.pool.CombineInto(m.opts.Reducer, acc, ls.outMaps[t], valP[t], w))
		}
		*accOut = acc
	}
	// Drop staged references so the scratch does not pin received
	// payload memory past the pass.
	for t := range inP {
		inP[t], outP[t], valP[t] = nil, nil, nil
	}
	return nil
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
// piece on zero-copy transports, where the two pieces are one slice,
// and a linear scan on decoding ones.
func (m *Machine) buildUnions(ls *layerState, inPieces, outPieces []sparse.Set) {
	ls.inUnion, ls.inMaps = m.unionMaps(inPieces)
	for t, p := range inPieces {
		if !p.Equal(outPieces[t]) {
			ls.outUnion, ls.outMaps = m.unionMaps(outPieces)
			return
		}
	}
	ls.outUnion, ls.outMaps = ls.inUnion, ls.inMaps
}

// unionMaps is one direction of buildUnions: the retained union of the
// pieces and their position maps into it.
func (m *Machine) unionMaps(pieces []sparse.Set) (sparse.Set, [][]int32) {
	total := 0
	for _, p := range pieces {
		total += len(p)
	}
	data := make([]int32, total)
	maps := make([][]int32, len(pieces))
	for t, p := range pieces {
		maps[t], data = data[:len(p):len(p)], data[len(p):]
	}
	return m.cfg.uni.UnionMaps(pieces, maps).Clone(), maps
}

// finishBottom builds the turnaround map from the bottom in-union into
// the bottom out-union and enforces Strict coverage.
func (cfg *Config) finishBottom(inBottom, outBottom sparse.Set) error {
	var missing int
	cfg.bottomMap, missing = sparse.PartialPositionMap(inBottom, outBottom)
	cfg.missing = missing
	if cfg.mach.opts.Strict && missing > 0 {
		return fmt.Errorf("core: rank %d: %d requested in-indices have no contributor (strict mode)",
			cfg.mach.Rank(), missing)
	}
	return nil
}

// bottomIn returns the machine's bottom-layer in-union (the top set when
// the topology has zero effective layers, which cannot happen since
// topologies always have >= 1 layer).
func (cfg *Config) bottomIn() sparse.Set {
	return cfg.layers[len(cfg.layers)-1].inUnion
}
