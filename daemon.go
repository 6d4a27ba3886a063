package kylix

import (
	"fmt"

	"kylix/internal/comm"
)

// StreamCtl is the tenant-stream control-plane message served by the
// kylix-node daemon over the cluster's KindControl tag space: stream
// create/reduce/close/shutdown commands broadcast by the coordinator
// rank and the per-rank acknowledgements. See cmd/kylix-node -daemon.
type StreamCtl = comm.StreamCtl

// StreamCtl operation codes.
const (
	OpStreamCreate   = comm.OpStreamCreate
	OpStreamReduce   = comm.OpStreamReduce
	OpStreamClose    = comm.OpStreamClose
	OpStreamShutdown = comm.OpStreamShutdown
	OpStreamAck      = comm.OpStreamAck
)

// The daemon's control channel lives on KindControl layer 1 (the
// membership gossip owns layer 0): commands flow coordinator -> rank on
// ctlCmd, acknowledgements rank -> coordinator on ctlAck. Each (sender,
// tag) mailbox queue is FIFO, so a fixed pair of tags carries the whole
// sequenced protocol.
var (
	streamCtlCmdTag = comm.MakeTag(comm.KindControl, 1, 0)
	streamCtlAckTag = comm.MakeTag(comm.KindControl, 1, 1)
)

// ControlSend sends a daemon control message to the given rank (ack
// messages go on the ack tag so a coordinator that is also a worker
// never confuses its own command echo with a reply).
func (n *Node) ControlSend(to int, ctl *StreamCtl) error {
	tag := streamCtlCmdTag
	if ctl.Op == OpStreamAck {
		tag = streamCtlAckTag
	}
	return n.ep.Send(to, tag, ctl)
}

// ControlRecv blocks for the next daemon control message from the given
// rank: commands when ack is false, acknowledgements when true. Receive
// timeouts surface as *comm.TimeoutError via errors.As-compatible
// wrapping — an idle daemon loop should treat them as "no command yet"
// and keep waiting.
func (n *Node) ControlRecv(from int, ack bool) (*StreamCtl, error) {
	tag := streamCtlCmdTag
	if ack {
		tag = streamCtlAckTag
	}
	p, err := n.ep.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	ctl, ok := p.(*StreamCtl)
	if !ok {
		return nil, fmt.Errorf("kylix: unexpected %T on the stream control channel", p)
	}
	return ctl, nil
}

// Stream derives a node bound to the given tenant stream id over the
// same endpoint: its message tags live in the stream's namespace, so
// its collectives interleave freely with the main node's and with other
// streams' — the cross-process counterpart of Cluster.OpenStream.
// Every machine must derive the same id with the same options, the id
// must be nonzero (0 is the node's own namespace) and must be derived
// at most once per node lifetime (each derivation starts the stream's
// tag space from round zero). Options may override WithWidth,
// WithReducer and WithStrict; transport and replication are inherited.
func (n *Node) Stream(id uint16, opts ...Option) (*Node, error) {
	if id == 0 {
		return nil, fmt.Errorf("kylix: stream 0 is the node's own namespace")
	}
	cfg := n.cfg
	cfg.stream = comm.StreamID(id)
	return n.derive(cfg, 0, opts)
}

// CloseStream purges the given tenant stream's namespace from this
// machine's transport mailbox: queued messages are dropped, their tags
// leave the pending index, and late deliveries (TCP resend replays)
// into the dead namespace are discarded from then on.
// Collective: every machine must close the same streams. Only
// meaningful on nodes with a real transport (ListenNode); in-process
// clusters purge through Stream.Close.
func (n *Node) CloseStream(id uint16) {
	if n.tn != nil {
		n.tn.CloseStream(comm.StreamID(id))
	}
}
