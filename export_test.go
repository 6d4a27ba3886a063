package kylix

import (
	"sync/atomic"

	"kylix/internal/comm"
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
func (c *Cluster) HeldScratch() int { return heldRanks(&c.scratch) }

// HeldScratch counts the ranks whose machine memory the stream keeps for
// its next Run.
func (s *Stream) HeldScratch() int { return heldRanks(&s.scratch) }

func heldRanks(s *atomic.Pointer[rankScratch]) int {
	n := 0
	for _, sc := range held(s) {
		if sc != nil {
			n++
		}
	}
	return n
}

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
