// Package core implements the Kylix sparse allreduce protocol: the
// downward configuration pass that routes index sets through the nested
// heterogeneous-degree butterfly and builds the f/g position maps
// (paper §III-A), the reduction's downward scatter-reduce and upward
// allgather (§III-B), and the fused configure+reduce for minibatch
// workloads. The direct all-to-all and binary-butterfly baselines of the
// evaluation are the same engine run on degree vectors [m] and [2,...,2].
//
//kylix:deterministic
package core

import (
	"errors"
	"fmt"

	"kylix/internal/comm"
	"kylix/internal/obs"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// Options tune a Machine.
type Options struct {
	// Width is the number of float32 values carried per feature
	// (default 1).
	Width int
	// Reducer combines colliding feature values (default sparse.Sum).
	Reducer sparse.Reducer
	// Strict makes Configure fail if some requested in-index has no
	// contributor anywhere in the network; otherwise such features
	// gather the reducer's identity. The paper requires
	// union(in) ⊆ union(out); Strict verifies the part of that condition
	// visible at this node's bottom range, which collectively covers the
	// whole space.
	Strict bool
	// Stream namespaces this Machine's tags: every tag the machine mints
	// carries the stream id, so several Machines — concurrent tenants, or
	// one program's main OR-reduce network and its tiny convergence
	// counter — share one endpoint without cross-delivery as long as
	// their streams differ. The zero value is comm.DefaultStream. Stream
	// is a dedicated tag field, so each stream gets the whole 32-bit
	// round space.
	Stream comm.StreamID
	// RoundBase offsets this Machine's tag sequence. Tags must never be
	// reused on an endpoint: a caller that creates successive Machines
	// over the same endpoint (e.g. kylix.Cluster.Run called repeatedly)
	// must start each new Machine past the rounds its predecessor
	// consumed, or stale replica-race cancellations from earlier rounds
	// would swallow the reused tags.
	RoundBase uint32
	// Tracer records per-pass and per-layer spans for this machine. Nil
	// (the default) disables tracing at the cost of a nil check per
	// span — the warm Reduce stays 0 allocs/op either way.
	Tracer *obs.Tracer
	// Quant selects the wire encoding of reduce/gather value blocks:
	// sparse.QuantOff (the default) ships raw float32s, sparse.QuantFP16
	// and sparse.QuantINT8 quantize every value piece on send and
	// dequantize on arrival, shrinking value traffic 2x / ~4x. Lossy
	// modes keep an error-feedback residual per (layer, piece,
	// direction) that folds each round's quantization error into the
	// next round's encoding, so systematic error does not accumulate
	// across rounds (the SparCML-style compensation). Results remain
	// deterministic: every rank's output is a pure function of the seed
	// and call sequence, bit-identical across reruns and transports.
	// The downward pass of a fused ConfigureReduce still ships raw
	// values (its payloads interleave keys and values and run once per
	// configuration, not per round); the upward allgather is quantized
	// in both paths.
	Quant sparse.Quantization
	// QuantNoFeedback disables the error-feedback residuals, making
	// each round's quantization independent (naive truncation). This
	// exists for ablation and testing only — with feedback off, values
	// smaller than half a quantization step are silently lost every
	// round instead of accumulating until they ship.
	QuantNoFeedback bool
	// Scratch is the reusable memory a predecessor Machine on this rank
	// left behind (see Scratch for when that is safe); nil makes the
	// Machine build its own. Wiring, not tuning: no result depends on it,
	// only what a Configure ships and allocates.
	Scratch *Scratch
}

func (o Options) withDefaults() Options {
	if o.Width == 0 {
		o.Width = 1
	}
	if o.Reducer == nil {
		o.Reducer = sparse.Sum
	}
	return o
}

// Machine is one cluster member's handle on the allreduce protocol. It
// is not safe for concurrent use by multiple goroutines (one goroutine
// per machine is the intended model); distinct Machines are independent.
type Machine struct {
	ep    comm.Endpoint
	bf    *topo.Butterfly
	opts  Options
	round uint32 // tag sequence; advances identically on every machine
	// cfg is the machine's reusable memory (configuration staging, union
	// arenas, the reduction arena): Options.Scratch or its own, readied at
	// the first pass and shared by every Config this machine produces.
	cfg *Scratch
}

// NewMachine binds an endpoint to a butterfly topology. The topology's
// machine count must equal the endpoint's cluster size.
func NewMachine(ep comm.Endpoint, bf *topo.Butterfly, opts Options) (*Machine, error) {
	if bf.M() != ep.Size() {
		return nil, fmt.Errorf("core: topology spans %d machines but cluster has %d", bf.M(), ep.Size())
	}
	if opts.Width < 0 {
		return nil, fmt.Errorf("core: negative width %d", opts.Width)
	}
	if !opts.Quant.Valid() {
		return nil, fmt.Errorf("core: unknown quantization mode %d", opts.Quant)
	}
	return &Machine{ep: ep, bf: bf, opts: opts.withDefaults()}, nil
}

// Rank returns the machine's rank.
func (m *Machine) Rank() int { return m.ep.Rank() }

// Topology returns the butterfly this machine runs on.
func (m *Machine) Topology() *topo.Butterfly { return m.bf }

// nextRound consumes one tag sequence number. All machines execute the
// same SPMD call sequence, so their counters stay aligned without any
// coordination traffic.
func (m *Machine) nextRound() uint32 {
	r := m.opts.RoundBase + m.round
	m.round++
	if r < m.opts.RoundBase {
		panic("core: tag sequence space exhausted (2^32 collective rounds)")
	}
	return r
}

// RoundsUsed reports how many tag rounds this Machine has consumed,
// for callers that chain Machines over one endpoint via RoundBase.
func (m *Machine) RoundsUsed() uint32 { return m.round }

// tag mints a protocol tag in this machine's stream namespace. Every
// tag the protocol passes to the endpoint goes through here, so a
// Machine's traffic is wholly contained in its stream.
//
//kylix:hotpath
func (m *Machine) tag(kind comm.Kind, layer int, seq uint32) comm.Tag {
	return comm.MakeStreamTag(m.opts.Stream, kind, layer, seq)
}

// layerState holds one communication layer's routing state on one
// machine, built by the configuration pass and reused by every
// subsequent reduction.
type layerState struct {
	// group is the ordered layer group; group[t] owns hash sub-range t.
	// It is nil until a pass has completed the layer — which is how the
	// next pass knows there is stored state to compare against.
	group []int
	// inOffsets/outOffsets split this machine's layer-(i-1) sets into
	// the pieces sent to each group member (d+1 entries each).
	inOffsets, outOffsets []int32
	// inUnion/outUnion are the merged index sets this machine holds
	// after the layer (in^i_k and out^i_k).
	inUnion, outUnion sparse.Set
	// inMaps[t]/outMaps[t] map positions of the piece received from
	// group[t] into the unions: outMaps are the f maps applied during
	// scatter-reduce, inMaps the g maps applied during allgather.
	inMaps, outMaps [][]int32
	// blocks are the whole blocks the in and out maps are carved from,
	// set when this Config's unionMaps built the unions and maps and nil
	// when those are shared with the base it continued from: a rebuild
	// retires only its own (Scratch.supersede).
	blocks [2][]int32
}

// Config is the reusable result of a configuration pass: for fixed in
// and out sets (e.g. PageRank's vertex sets) it is built once and then
// drives any number of Reduce calls, which is the paper's
// configure-once/reduce-many usage.
type Config struct {
	mach *Machine
	// inSet/outSet are the machine's top-level sets in key order.
	inSet, outSet sparse.Set
	layers        []layerState
	// bottomMap maps positions of the bottom in-union into the bottom
	// out-union (-1 where no contributor exists network-wide).
	bottomMap []int32
	// missing counts in-indices with no contributor in this machine's
	// bottom range.
	missing int
	// res is a quantized Config's error-feedback residuals, the one
	// reduction buffer that is not the machine arena's: made (or taken
	// from a finished Run's base) zeroed, dropped when a pass moves any
	// piece size.
	res []float32
	// stamp names this state of the piece sizes and residuals among all a
	// Scratch has seen (0: none yet), so an arena generation knows whose
	// carve it holds.
	stamp uint64
	// poisoned is set when a Reconfigure fails mid-collective: some
	// layers hold new routing state and others old, so every later use
	// of the Config must error rather than silently misroute.
	poisoned bool
}

// ErrPoisoned is the sentinel for a Config whose routing state diverged
// mid-Reconfigure. Match with errors.Is(err, ErrPoisoned); the concrete
// error is a *PoisonedError carrying the rank. A poisoned Config can
// never be repaired in place — recovery is a fresh Configure (or, under
// elastic membership, a fresh epoch).
var ErrPoisoned = errors.New("core: Config poisoned by a failed Reconfigure; rebuild with Configure")

// PoisonedError is the structured form of ErrPoisoned: it records which
// rank refused the operation so SPMD callers can tell a local poison
// from a peer's.
type PoisonedError struct {
	// Rank is the machine whose Config is poisoned.
	Rank int
}

// Error implements error.
func (e *PoisonedError) Error() string {
	return fmt.Sprintf("core: rank %d: Config poisoned by a failed Reconfigure; rebuild with Configure", e.Rank)
}

// Is makes errors.Is(err, ErrPoisoned) match a *PoisonedError.
func (e *PoisonedError) Is(target error) bool { return target == ErrPoisoned }

// Poisoned reports whether a failed Reconfigure has made the Config
// unusable. Callers seeing true must rebuild via Configure; the elastic
// membership layer uses it to route recovery into a fresh epoch instead
// of retrying a doomed Reduction.
func (c *Config) Poisoned() bool { return c.poisoned }

// InSet returns the configured in-set in key order. The values returned
// by Reduce align with it.
func (c *Config) InSet() sparse.Set { return c.inSet }

// OutSet returns the configured out-set in key order. The values passed
// to Reduce must align with it.
func (c *Config) OutSet() sparse.Set { return c.outSet }

// Missing reports how many of the bottom-range in-indices had no
// contributor (always 0 when Options.Strict configuration succeeded).
func (c *Config) Missing() int { return c.missing }

// BottomOutSize returns the number of fully reduced features this
// machine holds at the bottom layer. Summed across machines it is the
// "total volume of fully reduced values" plotted as the last layer of
// the paper's Figure 5.
func (c *Config) BottomOutSize() int {
	return len(c.layers[len(c.layers)-1].outUnion)
}

// LayerUnionSizes returns the per-layer (in, out) union sizes on this
// machine, for traffic analysis and the layer-volume experiments.
func (c *Config) LayerUnionSizes() (in, out []int) {
	for _, ls := range c.layers {
		in = append(in, len(ls.inUnion))
		out = append(out, len(ls.outUnion))
	}
	return in, out
}
