package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"kylix/internal/comm"
	"kylix/internal/obs"
	"kylix/internal/sparse"
)

// deltaUnchanged is the shared both-directions-unchanged marker. It is
// immutable (its lazily memoized encoding is a sync.Once), so every
// rank sends the same two-byte payload without allocating.
var deltaUnchanged = &comm.Delta{InSame: true, OutSame: true}

// Reconfigure rebinds the Config to new top-level index sets, reusing
// every piece of routing state the change does not touch. It is the
// incremental counterpart of Machine.Configure for workloads whose sets
// evolve slowly (a few vertices enter or leave between rounds): each
// layer ships a two-byte unchanged marker instead of a re-encoded piece
// for every neighbour whose piece is identical to the previous pass,
// and a layer whose received pieces are all unchanged keeps its unions
// and position maps without re-merging anything. When nothing changed
// at all, the reduction scratch arena survives too, so the next Reduce
// is as warm as before the call.
//
// Reconfigure is collective and SPMD like Configure: every live machine
// must call it in the same round order (possibly with unchanged sets).
// The first Reconfigure on a Config ships full pieces everywhere —
// Configure does not retain received pieces — and later calls send
// markers against the state it stored.
//
// On error the Config is poisoned: some layers may hold new state and
// others old, so it must be discarded (along with the collective round,
// which has diverged anyway).
func (c *Config) Reconfigure(inSet, outSet sparse.Set) (err error) {
	m := c.mach
	if c.poisoned {
		return &PoisonedError{Rank: m.Rank()}
	}
	// A set equal to the currently configured one is sorted by
	// construction; the warm unchanged-sets path gets away with two O(1)
	// aliasing checks instead of full validation scans. Failing here is
	// safe — nothing has been exchanged or overwritten yet, so the
	// Config stays usable; only errors past this point poison it.
	if !(inSet.Equal(c.inSet) || inSet.IsSorted()) || !(outSet.Equal(c.outSet) || outSet.IsSorted()) {
		return fmt.Errorf("core: Reconfigure requires sorted, deduplicated Sets")
	}
	defer func() {
		if err != nil {
			c.poisoned = true
		}
	}()
	round := m.nextRound()
	m.ensureCfgScratch()
	tr := m.opts.Tracer
	outer := tr.Begin(comm.KindConfig, 0)
	defer func() { outer.Err = err; tr.End(&outer) }()

	ready := c.reconfigReady
	allFast := true
	prevIn, prevOut := c.inSet, c.outSet
	inCur, outCur := inSet, outSet
	c.inSet, c.outSet = inSet, outSet
	for layer := 1; layer <= m.bf.Layers(); layer++ {
		ls := &c.layers[layer-1]
		// Snapshot the previous layer state: ls is overwritten below, but
		// the comparisons and marker substitutions need the old slices.
		old := *ls
		sp := tr.Begin(comm.KindConfig, layer)
		fast, err := c.reconfigureLayer(ls, &old, layer, round, ready, prevIn, prevOut, inCur, outCur, &sp)
		sp.Err = err
		tr.End(&sp)
		if err != nil {
			return fmt.Errorf("core: rank %d reconfigure layer %d: %w", m.Rank(), layer, err)
		}
		if !fast {
			allFast = false
		}
		prevIn, prevOut = old.inUnion, old.outUnion
		inCur, outCur = ls.inUnion, ls.outUnion
	}
	// The bottom turnaround depends only on the bottom unions: rebuild it
	// unless the last layer kept them. (When it kept them, inCur/outCur
	// alias the old unions, so the map is still exact.)
	last := &c.layers[len(c.layers)-1]
	if !ready || !last.inUnion.Equal(prevIn) || !last.outUnion.Equal(prevOut) {
		if err := c.finishBottom(inCur, outCur); err != nil {
			return err
		}
	}
	if !allFast {
		// Buffer sizes may have changed somewhere; rebuild the reduction
		// arena lazily on the next Reduce.
		c.scratch = scratch{}
	}
	c.reconfigReady = true
	return nil
}

// reconfigureLayer runs one layer of the incremental pass. old is the
// layer's previous state (already snapshotted by the caller); ls is
// overwritten in place. It reports fast=true when the layer reused both
// its send split and its receive-side unions/maps unchanged.
func (c *Config) reconfigureLayer(ls, old *layerState, layer int, round uint32, ready bool, prevIn, prevOut, inCur, outCur sparse.Set, sp *obs.Span) (fast bool, err error) {
	m := c.mach
	cs := m.cfg
	d := m.bf.Degree(layer)
	parent := m.bf.RangeAt(m.Rank(), layer-1)
	sp.Peers = d
	tag := m.tag(comm.KindConfig, layer, round)

	// Whole-set fast path: when this layer's input sets are the previous
	// ones (O(1) when they alias, which is what an unchanged upper layer
	// hands down), every piece is trivially identical — skip the split
	// and per-piece comparisons and send markers straight away.
	sendSame := ready && inCur.Equal(prevIn) && outCur.Equal(prevOut)
	var newInOffs, newOutOffs []int32
	if sendSame {
		for _, member := range old.group {
			m.stampOut(sp, deltaUnchanged)
			if err := m.ep.Send(member, tag, deltaUnchanged); err != nil {
				return false, err
			}
		}
	} else {
		// Candidate split of the new sets, staged in machine scratch; it
		// is only retained (copied) if the send split actually changed.
		newInOffs = sparse.SplitOffsetsInto(cs.offs[:d+1:d+1], inCur, parent, d)
		newOutOffs = sparse.SplitOffsetsInto(cs.offs[d+1:2*(d+1)], outCur, parent, d)

		// Send one Delta per member: unchanged directions become markers.
		sendSame = true
		var hdrs []comm.Delta
		for t, member := range old.group {
			newIn := sparse.Piece(inCur, newInOffs, t)
			newOut := sparse.Piece(outCur, newOutOffs, t)
			var p *comm.Delta
			if ready {
				inSame := newIn.Equal(sparse.Piece(prevIn, old.inOffsets, t))
				outSame := newOut.Equal(sparse.Piece(prevOut, old.outOffsets, t))
				if inSame && outSame {
					p = deltaUnchanged
				} else {
					sendSame = false
					if hdrs == nil {
						hdrs = make([]comm.Delta, d)
					}
					p = &hdrs[t]
					p.InSame, p.OutSame = inSame, outSame
					if !inSame {
						p.In = newIn
					}
					if !outSame {
						p.Out = newOut
					}
				}
			} else {
				sendSame = false
				if hdrs == nil {
					hdrs = make([]comm.Delta, d)
				}
				p = &hdrs[t]
				p.In, p.Out = newIn, newOut
			}
			m.stampOut(sp, p)
			if err := m.ep.Send(member, tag, p); err != nil {
				return false, err
			}
		}
	}

	// Receive one Delta per member; markers substitute the stored
	// previous piece.
	inP, outP, seen := cs.inP[:d], cs.outP[:d], cs.seen[:d]
	for t := range seen {
		seen[t] = false
	}
	recvSame := true
	myRange := parent.Sub(d, m.bf.Digit(m.Rank(), layer))
	for received := 0; received < d; {
		from, p, err := m.ep.RecvGroup(cs.groups[layer-1], tag)
		if err != nil {
			return false, fmt.Errorf("recv: %w", err)
		}
		t := memberIndex(old.group, from)
		if t < 0 {
			return false, fmt.Errorf("piece from %d outside group", from)
		}
		if seen[t] {
			continue // duplicate delivery
		}
		q, ok := p.(*comm.Delta)
		if !ok {
			return false, fmt.Errorf("unexpected payload %T from %d", p, from)
		}
		if (q.InSame || q.OutSame) && (!ready || old.recvIn == nil) {
			return false, fmt.Errorf("unchanged marker from %d but no stored piece", from)
		}
		if q.InSame {
			inP[t] = old.recvIn[t]
		} else {
			recvSame = false
			inP[t] = q.In
			if err := sparse.CheckInRange(inP[t], myRange); err != nil {
				return false, fmt.Errorf("in piece from %d: %w", from, err)
			}
		}
		if q.OutSame {
			outP[t] = old.recvOut[t]
		} else {
			recvSame = false
			outP[t] = q.Out
			if err := sparse.CheckInRange(outP[t], myRange); err != nil {
				return false, fmt.Errorf("out piece from %d: %w", from, err)
			}
		}
		m.stampIn(sp, p)
		seen[t] = true
		received++
	}

	// Send side: keep the old split when nothing we ship changed,
	// otherwise retain a copy of the staged offsets.
	if sendSame {
		ls.group, ls.inOffsets, ls.outOffsets = old.group, old.inOffsets, old.outOffsets
	} else {
		offs := make([]int32, 2*(d+1))
		copy(offs[:d+1], newInOffs)
		copy(offs[d+1:], newOutOffs)
		ls.group = old.group
		ls.inOffsets = offs[: d+1 : d+1]
		ls.outOffsets = offs[d+1:]
	}

	// Receive side: unions and maps depend only on the received pieces,
	// so all-markers means they are exactly the old ones.
	layerFast := ready && recvSame
	if layerFast {
		ls.inUnion, ls.outUnion = old.inUnion, old.outUnion
		ls.inMaps, ls.outMaps = old.inMaps, old.outMaps
		ls.recvIn, ls.recvOut = old.recvIn, old.recvOut
	} else {
		c.mach.buildUnions(ls, inP, outP)
		// Retain the received pieces for the next incremental pass. Sets
		// are immutable, so holding the references (zero-copy transports
		// hand us slices of the sender's unions) is safe.
		if old.recvIn == nil {
			ls.recvIn = make([]sparse.Set, d)
			ls.recvOut = make([]sparse.Set, d)
		} else {
			ls.recvIn, ls.recvOut = old.recvIn, old.recvOut
		}
		copy(ls.recvIn, inP)
		copy(ls.recvOut, outP)
	}
	m.opts.Tracer.CountReconfigureLayer(layerFast)
	for t := range inP {
		inP[t], outP[t] = nil, nil
	}
	return layerFast && sendSame, nil
}

// Digest returns a 64-bit FNV-1a fingerprint of every piece of routing
// state the Config holds: top sets, per-layer groups, split offsets,
// unions, position maps, and the bottom turnaround. Two Configs with
// equal digests route identically, so a Reconfigure pass can be checked
// bit-for-bit against a fresh Configure of the same sets — the chaos
// suite uses this to prove fault-injected reconfiguration converges to
// exactly the fault-free state.
func (c *Config) Digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	set := func(s sparse.Set) {
		u64(uint64(len(s)))
		for _, k := range s {
			u64(uint64(k))
		}
	}
	i32s := func(m []int32) {
		u64(uint64(len(m)))
		for _, v := range m {
			u64(uint64(uint32(v)))
		}
	}
	set(c.inSet)
	set(c.outSet)
	for i := range c.layers {
		ls := &c.layers[i]
		u64(uint64(len(ls.group)))
		for _, r := range ls.group {
			u64(uint64(r))
		}
		i32s(ls.inOffsets)
		i32s(ls.outOffsets)
		set(ls.inUnion)
		set(ls.outUnion)
		for _, m := range ls.inMaps {
			i32s(m)
		}
		for _, m := range ls.outMaps {
			i32s(m)
		}
	}
	i32s(c.bottomMap)
	u64(uint64(c.missing))
	return h.Sum64()
}
