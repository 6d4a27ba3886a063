package kylix

import (
	"sync/atomic"
	"unsafe"

	"kylix/internal/comm"
	"kylix/internal/sparse"
)

// The tenant bounds, for the external tests.
const (
	MaxOpenStreams = maxOpenStreams
	StreamInflight = streamInflight
)

// Inflight reports the stream's queued-plus-running passes.
func (s *Stream) Inflight() int { return int(s.inflight.Load()) }

// StreamPending reports one stream's queued, undelivered messages on a
// ListenNode node's transport, for the external tests.
func (n *Node) StreamPending(id uint16) int { return n.tn.StreamPending(comm.StreamID(id)) }

// HeldScratch counts the ranks whose machine memory the default
// namespace keeps for its next Run.
func (c *Cluster) HeldScratch() int { return heldRanks(&c.scratch, false) }

// HeldScratch counts the ranks whose machine memory the stream keeps for
// its next Run.
func (s *Stream) HeldScratch() int { return heldRanks(&s.scratch, false) }

// HeldSets counts the ranks whose last Configure's prepared sets the
// default namespace keeps for its next Run.
func (c *Cluster) HeldSets() int { return heldRanks(&c.scratch, true) }

// HeldSets counts the ranks whose last Configure's prepared sets the
// stream keeps for its next Run.
func (s *Stream) HeldSets() int { return heldRanks(&s.scratch, true) }

func heldRanks(s *atomic.Pointer[rankScratch], sets bool) int {
	n := 0
	for _, mem := range held(s) {
		if mem != nil && (!sets || mem.sets.inSet != nil) {
			n++
		}
	}
	return n
}

// InSetData is the first key of the in-Set r was configured with: two
// Reductions that report the same pointer share one Set.
func (r *Reduction) InSetData() *sparse.Key { return unsafe.SliceData(r.cfg.InSet()) }

// ArenaBytes is a lower bound on the float-slab bytes one pass over r
// carves from an arena generation, from the sizes core reports: the
// out-value stage, the turnaround vector and per layer the accumulator,
// the assembly buffer and the gathered pieces (at least the in-union).
func (r *Reduction) ArenaBytes() int {
	in, out := r.cfg.LayerUnionSizes()
	n, below := len(r.cfg.OutSet())+in[len(in)-1], len(r.cfg.InSet())
	for i := range in {
		n += out[i] + below + in[i]
		below = in[i]
	}
	return 4 * n * r.node.width
}

// RoutingBytes is what r's routing state weighs, for a Reduction over
// one list (every layer symmetric): 8 bytes a key of its top Set and
// unions, and 4 a map entry — at least one a union key, the count used
// here — and an order-map entry.
func (r *Reduction) RoutingBytes() int {
	in, _ := r.cfg.LayerUnionSizes()
	n := 8*len(r.cfg.InSet()) + 4*len(r.om.in)
	for _, u := range in {
		n += 12 * u
	}
	return n
}
