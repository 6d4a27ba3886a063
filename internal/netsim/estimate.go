package netsim

import (
	"fmt"
	"strings"

	"kylix/internal/comm"
	"kylix/internal/obs"
)

// LayerTime is the modelled duration of one (kind, layer) phase.
type LayerTime struct {
	Kind  comm.Kind
	Layer int
	// Seconds is the modelled per-layer completion time (layers are
	// near-barriers in the protocol, so phase time is the busiest node's
	// time).
	Seconds float64
	// WireBytes is the non-self traffic of the layer across the network,
	// in the raw-equivalent (uncompressed) format the model charges.
	WireBytes int64
	// MsgBytes is the average wire message size, the quantity the
	// packet-floor design rule constrains.
	MsgBytes float64
}

// Report aggregates modelled times per protocol phase, mirroring the
// config-time / reduce-time split of Figure 6 and Table I.
type Report struct {
	// ConfigSec is the downward configuration pass (KindConfig plus any
	// fused KindConfigReduce traffic).
	ConfigSec float64
	// ReduceSec is the reduction: scatter-reduce plus allgather.
	ReduceSec float64
	// Layers holds the per-layer breakdown, one entry per input row in
	// the input's order.
	Layers []LayerTime
}

// TotalSec is the whole allreduce round.
func (r Report) TotalSec() float64 { return r.ConfigSec + r.ReduceSec }

// String renders the report for logs.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "config %.4fs reduce %.4fs total %.4fs\n", r.ConfigSec, r.ReduceSec, r.TotalSec())
	for _, lt := range r.Layers {
		fmt.Fprintf(&b, "  %-14s L%d  %.4fs  wire=%d  msg=%.0fB\n", lt.Kind, lt.Layer, lt.Seconds, lt.WireBytes, lt.MsgBytes)
	}
	return b.String()
}

// Estimate converts recorded traffic — the traffic store's rows for a
// cluster of the given machine count — into modelled cluster time
// under the model with the given per-node thread count. Per layer, the
// modelled time is the average live node's wire traffic pushed through
// the NodePhaseTime cost (hash partitioning balances nodes, so mean and
// max coincide up to noise; self-sends move no wire bytes and are
// excluded).
//
// The model charges the raw-equivalent volume (8 bytes per index key),
// not the compressed wire bytes: the figures this estimator feeds
// reproduce the paper's evaluation, and the paper's implementation
// ships uncompressed keys. Charging compressed bytes would silently
// shift every paper-anchored comparison (e.g. the binary butterfly's
// extra-layer penalty in Figure 6 mostly evaporates, because the dense
// lower layers compress best). The codec's real saving is reported
// separately, as the RawBytes/Bytes ratio in TrafficReport and the
// kylix-bench compression table.
func Estimate(layers []obs.LayerTraffic, machines int, m Model, threads int) Report {
	nodes := int64(machines)
	if nodes == 0 {
		return Report{}
	}
	var rep Report
	for _, lt := range layers {
		wireMsgs := lt.Msgs - lt.SelfMsgs
		wireBytes := lt.RawBytes - lt.SelfRawBytes
		perNodeMsgs := (wireMsgs + nodes - 1) / nodes
		perNodeBytes := wireBytes / nodes
		sec := m.NodePhaseTime(perNodeMsgs, perNodeBytes, threads)
		var msgBytes float64
		if wireMsgs > 0 {
			msgBytes = float64(wireBytes) / float64(wireMsgs)
		}
		rep.Layers = append(rep.Layers, LayerTime{
			Kind: lt.Kind, Layer: lt.Layer, Seconds: sec,
			WireBytes: wireBytes, MsgBytes: msgBytes,
		})
		switch lt.Kind {
		case comm.KindConfig, comm.KindConfigReduce:
			rep.ConfigSec += sec
		case comm.KindReduce, comm.KindGather:
			rep.ReduceSec += sec
		}
	}
	return rep
}
