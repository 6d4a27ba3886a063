package core

import (
	"fmt"

	"kylix/internal/comm"
	"kylix/internal/obs"
	"kylix/internal/sparse"
)

// Reduce runs one reduction over an existing configuration (§III-B):
// a downward scatter-reduce followed by an upward allgather through the
// same nested groups. outVals must hold Width values per key of
// OutSet(), in key order; the result holds Width values per key of
// InSet(), in key order. All live machines must call Reduce collectively
// and in the same round order.
//
// The hot path is pipelined and allocation-free: within each layer all
// pieces are sent before any receive is posted, incoming pieces are
// taken in arrival order (so a slow member never blocks combining the
// fast ones), and every buffer is carved from the machine's arena (see
// Scratch). Arrival order does not change results — pieces are staged
// per sender and folded in canonical member order, so the float combine
// sequence is bit-identical to a fully in-order run.
//
// When Options.Tracer is set, the pass records a whole-pass span
// (layer 0) nesting one span per communication layer, each carrying the
// layer's wire bytes in/out and group size; the zero-alloc property is
// preserved (spans are stack values recorded into preallocated rings).
//
// The returned slice is owned by the arena, which keeps two generations
// of it and of nothing else: it stays valid until the second-following
// arena pass (Reduce or ConfigureReduce, of any Config) on this Machine.
// Callers that retain results longer must copy them out.
//
//kylix:hotpath
func (c *Config) Reduce(outVals []float32) (res []float32, err error) {
	m := c.mach
	if c.poisoned {
		return nil, &PoisonedError{Rank: m.Rank()}
	}
	w := m.opts.Width
	if len(outVals) != len(c.outSet)*w {
		return nil, fmt.Errorf("core: rank %d: Reduce got %d values, want %d (|out|=%d x width %d)",
			m.Rank(), len(outVals), len(c.outSet)*w, len(c.outSet), w)
	}
	round := m.nextRound()
	g := c.flip()
	tr := m.opts.Tracer
	tr.CountRound()
	tr.CountArenaFlip()
	outer := tr.Begin(comm.KindReduce, 0)
	defer func() {
		if err != nil {
			m.cfg.abandon()
		}
		outer.Err = err
		tr.End(&outer)
	}()

	// Downward scatter-reduce.
	cur := outVals
	for i := range c.layers {
		if cur, err = c.scatterLayer(i, round, cur, g, tr); err != nil {
			return nil, fmt.Errorf("core: rank %d reduce layer %d: %w", m.Rank(), i+1, err)
		}
	}
	return c.gatherUp(cur, round, g)
}

// scatterLayer runs one layer of the downward scatter-reduce: issue
// every send before posting any receive (all pieces in flight while we
// turn around to combine), then take pieces as they arrive but fold in
// canonical member order — each receipt is staged in its sender's slot
// and a fold cursor advances over the contiguous staged prefix, so
// compute overlaps with stragglers' network time while the float
// combine sequence stays exactly the in-order one.
//
//kylix:hotpath
func (c *Config) scatterLayer(i int, round uint32, cur []float32, g *genBufs, tr *obs.Tracer) (acc []float32, err error) {
	m := c.mach
	w := m.opts.Width
	ls := &c.layers[i]
	d := len(ls.group)
	sp := tr.Begin(comm.KindReduce, i+1)
	sp.Peers = d
	// Whatever is still staged at an error exit is dropped with the slots:
	// on memnet it is a peer's arena segment, which must not stay pinned.
	staged, held, seen := m.cfg.valP[:d], m.cfg.plP[:d], m.cfg.seen[:d]
	defer func() {
		clear(staged)
		clear(held)
		sp.Err = err
		tr.End(&sp)
	}()
	tag := m.tag(comm.KindReduce, i+1, round)

	pieces := g.scatter[i]
	for t, member := range ls.group {
		p := &pieces[t]
		p.f.Vals = cur[int(ls.outOffsets[t])*w : int(ls.outOffsets[t+1])*w]
		if err := m.sendPiece(member, tag, p, &sp); err != nil {
			return nil, err
		}
	}

	acc = g.acc[i]
	sparse.Fill(acc, m.opts.Reducer.Identity())

	clear(seen)
	folded := 0
	for received := 0; received < d; received++ {
		t, pl, err := m.recvPiece(i, tag, seen)
		if err == nil {
			// No fixed destination: a raw piece is folded from the received
			// payload itself, a packed one from its landing buffer. Either
			// way the payload is held until its fold and released after it.
			held[t] = pl
			staged[t], err = m.landPiece(ls.group[t], pl, &pieces[t], nil, len(ls.outMaps[t])*w, &sp)
		}
		if err != nil {
			return nil, err
		}
		for folded < d && seen[folded] {
			sparse.CombineInto(m.opts.Reducer, acc, ls.outMaps[folded], staged[folded], w)
			// Do not pin received payload memory past the fold: the payload
			// goes back to the transport that decoded it, if one did.
			comm.Release(held[folded])
			staged[folded], held[folded] = nil, nil
			folded++
		}
	}
	return acc, nil
}

// gatherUp runs the upward allgather from fully reduced bottom values.
// cur must align with the bottom out-union. Buffers are the given arena
// generation's, carved for this Config; the returned slice is g.next[0].
//
//kylix:hotpath
func (c *Config) gatherUp(cur []float32, round uint32, g *genBufs) (res []float32, err error) {
	m := c.mach
	tr := m.opts.Tracer
	outer := tr.Begin(comm.KindGather, 0)
	defer func() { outer.Err = err; tr.End(&outer) }()
	if poisonArena.Load() { // every peer has landed the last pass's up pieces
		poison(m.cfg.up.f, m.cfg.up.b)
	}

	// Bottom turnaround: look the in-union's values up in the reduced
	// out-union (v_in^l := v_out^l restricted to the requested indices).
	// Indices nobody contributed gather the reducer's identity (0 for
	// sum, +Inf for min, ...), so downstream folds remain neutral. A nil
	// map is the identity: the layers read the reduced vector itself.
	inVals := cur
	if c.bottomMap != nil {
		inVals = g.inVals
		sparse.GatherInto(inVals, c.bottomMap, cur, m.opts.Width, m.opts.Reducer.Identity())
	}

	// Upward allgather, layer l..1.
	for i := len(c.layers) - 1; i >= 0; i-- {
		if err := c.gatherLayer(i, round, inVals, g, tr); err != nil {
			return nil, fmt.Errorf("core: rank %d gather layer %d: %w", m.Rank(), i+1, err)
		}
		inVals = g.next[i]
	}
	return inVals, nil
}

// gatherLayer runs one layer of the upward allgather: extract and
// return to each member the values for the in-piece it sent down during
// configuration (the g maps), all sends issued before any receive, then
// land received segments in g.next[i] in arrival order — segments are
// disjoint, so there is no ordering constraint at all.
//
//kylix:hotpath
func (c *Config) gatherLayer(i int, round uint32, inVals []float32, g *genBufs, tr *obs.Tracer) (err error) {
	m := c.mach
	w := m.opts.Width
	ls := &c.layers[i]
	d := len(ls.group)
	sp := tr.Begin(comm.KindGather, i+1)
	sp.Peers = d
	defer func() { sp.Err = err; tr.End(&sp) }()
	tag := m.tag(comm.KindGather, i+1, round)

	pieces := g.gather[i]
	for t, member := range ls.group {
		p := &pieces[t]
		sparse.GatherInto(p.f.Vals, ls.inMaps[t], inVals, w, 0)
		if err := m.sendPiece(member, tag, p, &sp); err != nil {
			return err
		}
	}

	next, seen := g.next[i], m.cfg.seen[:d]
	clear(seen)
	for received := 0; received < d; received++ {
		t, pl, err := m.recvPiece(i, tag, seen)
		if err == nil {
			seg := next[int(ls.inOffsets[t])*w : int(ls.inOffsets[t+1])*w]
			_, err = m.landPiece(ls.group[t], pl, &pieces[t], seg, len(seg), &sp)
		}
		if err != nil {
			return err
		}
		comm.Release(pl) // landed: copied or dequantized into its segment
	}
	return nil
}

// sendPiece is the send step of both directions: it puts the piece's
// float view p.f.Vals into its wire form — the raw header itself, or
// p.q refilled by the quantize kernel, which also folds the piece's
// error-feedback residual in and leaves this round's error there —
// charges the layer span, and hands the payload to the endpoint.
//
//kylix:hotpath
func (m *Machine) sendPiece(to int, tag comm.Tag, p *piece, sp *obs.Span) error {
	pl := comm.Payload(&p.f)
	if quant := m.opts.Quant; quant != sparse.QuantOff {
		sparse.Quantize(quant, p.q.Data, p.f.Vals, p.res)
		pl = &p.q
	}
	m.stampOut(sp, pl)
	return m.ep.Send(to, tag, pl)
}

// stampOut and stampIn charge a sent or received payload's wire bytes
// to its layer span — all core knows of byte accounting; traffic
// totals are the transport sink's. A machine without a tracer discards
// its spans, so it skips the sizing too: for a configuration payload
// that is a run of the index codec.
//
//kylix:hotpath
func (m *Machine) stampOut(sp *obs.Span, p comm.Payload) {
	if m.opts.Tracer != nil {
		sp.BytesOut += int64(p.WireSize())
	}
}

//kylix:hotpath
func (m *Machine) stampIn(sp *obs.Span, p comm.Payload) {
	if m.opts.Tracer != nil {
		sp.BytesIn += int64(p.WireSize())
	}
}

// recvPiece is the receive skeleton of every plane: it takes layer
// i+1's next piece in arrival order, skipping duplicate deliveries
// (chaotic transports), which seen guards, and returns the sender's
// slot in the layer group with the payload.
//
//kylix:hotpath
func (m *Machine) recvPiece(i int, tag comm.Tag, seen []bool) (int, comm.Payload, error) {
	for {
		from, pl, err := m.ep.RecvGroup(m.cfg.groups[i], tag)
		if err != nil {
			return -1, nil, fmt.Errorf("recv: %w", err)
		}
		t := memberIndex(m.cfg.groupOf[i], from)
		if t < 0 {
			return -1, nil, fmt.Errorf("piece from %d outside group", from)
		}
		if !seen[t] {
			seen[t] = true
			return t, pl, nil
		}
	}
}

// landPiece is the land step of both directions: it checks the payload
// received from a member against the configured wire form (payload
// type, quantization mode, the n values expected) and yields its floats
// in dst — copied or dequantized there — or, when dst is nil, zero-copy
// as the received Floats.Vals (raw) or in the piece's own landing buffer
// (packed).
//
//kylix:hotpath
func (m *Machine) landPiece(from int, pl comm.Payload, p *piece, dst []float32, n int, sp *obs.Span) ([]float32, error) {
	if quant := m.opts.Quant; quant != sparse.QuantOff {
		q, ok := pl.(*comm.QVals)
		if !ok || q.Mode != quant {
			return nil, fmt.Errorf("piece from %d: unexpected payload %T (quantization %v)", from, pl, quant)
		}
		if q.N != n {
			return nil, fmt.Errorf("piece from %d has %d values, want %d", from, q.N, n)
		}
		m.stampIn(sp, q)
		if dst == nil {
			dst = p.land
		}
		sparse.Dequantize(quant, dst, q.Data)
		return dst, nil
	}
	f, ok := pl.(*comm.Floats)
	if !ok {
		return nil, fmt.Errorf("piece from %d: unexpected payload %T (quantization off)", from, pl)
	}
	if len(f.Vals) != n {
		return nil, fmt.Errorf("piece from %d has %d values, want %d", from, len(f.Vals), n)
	}
	m.stampIn(sp, f)
	if dst == nil {
		return f.Vals, nil
	}
	copy(dst, f.Vals)
	return dst, nil
}

// ConfigureReduce fuses configuration and reduction in a single downward
// pass plus the upward allgather, halving message count for workloads
// whose in/out sets change on every call (minibatch SGD, Gibbs sampling;
// §III: "it is more efficient to do configuration and reduction
// concurrently with combined network messages"). It returns the
// resulting Config — reusable by later plain Reduce calls — together
// with the reduced in-values (arena-owned, like Reduce results).
func (m *Machine) ConfigureReduce(inSet, outSet sparse.Set, outVals []float32) (*Config, []float32, error) {
	cfg := m.newConfig()
	res, err := cfg.configure("config+reduce", comm.KindConfigReduce, inSet, outSet, outVals)
	if err != nil {
		return nil, nil, err
	}
	return cfg, res, nil
}
