package kylix

import "kylix/internal/comm"

// StreamPending reports one stream's queued, undelivered messages on a
// ListenNode node's transport, for the external tests.
func (n *Node) StreamPending(id uint16) int { return n.tn.StreamPending(comm.StreamID(id)) }
