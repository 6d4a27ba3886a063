package core

import (
	"encoding/binary"
	"hash/fnv"

	"kylix/internal/comm"
	"kylix/internal/sparse"
)

// Reconfigure rebinds the Config to new top-level index sets, reusing
// every piece of routing state the change does not touch. It is the
// incremental counterpart of Machine.Configure for workloads whose sets
// evolve slowly (a few vertices enter or leave between rounds): each
// layer ships a two-byte same marker instead of a re-encoded piece for
// every neighbour whose piece is identical to the previous pass, and a
// layer whose received pieces are all markers keeps its unions and
// position maps without re-merging anything. When nothing changed at
// all, a quantized Config keeps its error-feedback residuals too, so
// the next Reduce continues exactly where the last one stopped.
//
// This holds from the first Reconfigure on, whichever entry point built
// the Config: what a pass compares against is the routing state itself
// (the previous sets and split offsets say what was sent, the unions
// and position maps what was received), so nothing has to be primed.
//
// Reconfigure is collective and SPMD like Configure: every live machine
// must call it in the same round order (possibly with unchanged sets).
//
// On error the Config is poisoned: some layers may hold new state and
// others old, so it must be discarded (along with the collective round,
// which has diverged anyway).
func (c *Config) Reconfigure(inSet, outSet sparse.Set) error {
	_, err := c.configure("reconfigure", comm.KindConfig, inSet, outSet, nil)
	return err
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
	if c.bottomMap != nil {
		i32s(c.bottomMap)
	} else { // hashed as the identity map over the bottom in-union it stands for
		n := len(c.layers[len(c.layers)-1].inUnion)
		u64(uint64(n))
		for p := range n {
			u64(uint64(p))
		}
	}
	u64(uint64(c.missing))
	return h.Sum64()
}
