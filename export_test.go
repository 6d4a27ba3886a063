package kylix

import "kylix/internal/comm"

// StreamPending reports one stream's queued, undelivered messages on a
// ListenNode node's transport, for the external tests.
func (n *Node) StreamPending(id uint16) int { return n.tn.StreamPending(comm.StreamID(id)) }

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
