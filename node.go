package kylix

import (
	"fmt"
	"io"
	"slices"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/replica"
	"kylix/internal/sparse"
	"kylix/internal/stream"
	"kylix/internal/tcpnet"
	"kylix/internal/topo"
)

// Node is one machine's handle on the allreduce. Methods are collective:
// every live machine must call the same sequence of Configure /
// Reduce / ConfigureReduce / TreeAllreduce operations.
type Node struct {
	mach     *core.Machine
	ep       comm.Endpoint // logical endpoint: replica.Wrap over the physical one
	bf       *topo.Butterfly
	cfg      config
	base     uint32
	physRank int
	width    int
	closer   io.Closer
	// tn is the node's raw TCP transport when built by ListenNode —
	// CloseStream purges through it. Nil for in-process cluster nodes.
	tn *tcpnet.Node
	// sets is the rank's last Configure in the namespace, kept with its
	// machine memory (rankMemory); nil on ListenNode and Node.Stream
	// nodes, which prepare afresh.
	sets *preparedSets
	// streams is the cluster's registry on a NewCluster node, which
	// Stream claims derived ids from; nil on a ListenNode node.
	streams *stream.Registry
	// derived holds every network derived from this node with Stream,
	// directly or through one of them (those point back with root):
	// Stream refuses an id already in it, and tag accounting covers them
	// across repeated Cluster.Run calls.
	derived []*Node
	root    *Node
}

// newNode builds one machine's handle over the physical endpoint ep,
// mapped by replica.Wrap onto the dense logical ranks of members (nil
// unless elastic: every machine) at the configured replication. physRank
// is ep.Rank(), the machine's position in the physical cluster;
// observability is keyed by it. scratch is what an earlier node of this
// rank and namespace left, or nil.
func newNode(ep comm.Endpoint, members []int, bf *topo.Butterfly, cfg config, roundBase uint32, physRank int, scratch *core.Scratch) (*Node, error) {
	lep, err := replica.Wrap(ep, members, cfg.replication)
	if err != nil {
		return nil, err
	}
	opts := coreOptions(cfg, roundBase, physRank)
	opts.Scratch = scratch
	mach, err := core.NewMachine(lep, bf, opts)
	if err != nil {
		return nil, err
	}
	return &Node{
		mach: mach, ep: lep, bf: bf, cfg: cfg, base: roundBase,
		physRank: physRank, width: cfg.width,
	}, nil
}

// coreOptions is the one place a node's config becomes its machine's
// options; base offsets the tag sequence past earlier machines on the
// same endpoint.
func coreOptions(cfg config, base uint32, physRank int) core.Options {
	return core.Options{
		Width:     cfg.width,
		Reducer:   cfg.reducer,
		Strict:    cfg.strict,
		Stream:    cfg.stream,
		RoundBase: base,
		Quant:     cfg.quant,
		Tracer:    cfg.obsv.Node(physRank),
	}
}

// Stream derives a second, independent allreduce network over the same
// endpoint, bound to the given stream id: its message tags live in that
// stream's namespace, so its collectives interleave freely with the
// main node's and with other streams'. This is how multi-network
// programs compose — e.g. an OR-reduce sketch network plus a width-1 sum
// network for a global convergence counter — and, across processes, how
// tenants share ListenNode sockets. Every machine must derive the same
// id with the same options; the id must be nonzero (0 is the default
// namespace) and not yet derived from this node. Options may override
// WithWidth, WithReducer, WithStrict and WithQuantization; transport and
// replication are inherited.
//
// On a NewCluster node the id is claimed from the cluster's registry:
// one that OpenStream has issued is refused, and OpenStream never issues
// it afterwards. The nodes a Stream.Run hands out derive nothing: a
// tenant that needs a second network opens a second Stream.
func (n *Node) Stream(id uint16, opts ...Option) (*Node, error) {
	root := n
	if n.root != nil {
		root = n.root
	}
	sid := comm.StreamID(id)
	switch {
	case root.cfg.stream != comm.DefaultStream:
		return nil, fmt.Errorf("kylix: cannot derive from tenant stream %d's node; open a second Stream", root.cfg.stream)
	case sid == comm.DefaultStream:
		return nil, fmt.Errorf("kylix: stream 0 is the default namespace")
	case slices.ContainsFunc(root.derived, func(o *Node) bool { return o.cfg.stream == sid }):
		// Two machines in one stream would mint identical tags and take
		// each other's messages.
		return nil, fmt.Errorf("kylix: stream %d is already in use on this node", id)
	}
	if n.streams != nil {
		if err := n.streams.Claim(sid); err != nil {
			return nil, fmt.Errorf("kylix: %w", err)
		}
	}
	cfg := n.cfg
	cfg.stream = sid
	for _, o := range opts {
		o(&cfg)
	}
	mach, err := core.NewMachine(n.ep, n.bf, coreOptions(cfg, n.base, n.physRank))
	if err != nil {
		return nil, err
	}
	d := &Node{
		mach: mach, ep: n.ep, bf: n.bf, cfg: cfg, base: n.base,
		physRank: n.physRank, width: cfg.width, tn: n.tn, streams: n.streams, root: root,
	}
	root.derived = append(root.derived, d)
	return d, nil
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

// roundsUsed reports the maximum tag rounds consumed by this node and
// the networks derived from it (Cluster.Run uses it to keep tag spaces
// fresh across runs).
func (n *Node) roundsUsed() uint32 {
	used := n.mach.RoundsUsed()
	for _, d := range n.derived {
		used = max(used, d.mach.RoundsUsed())
	}
	return used
}

// Rank is the node's logical rank (the rank its data partition is
// addressed by). Without replication it equals the physical rank.
func (n *Node) Rank() int { return n.mach.Rank() }

// PhysicalRank is the machine's position in the physical cluster.
func (n *Node) PhysicalRank() int { return n.physRank }

// Size is the logical cluster size the topology spans.
func (n *Node) Size() int { return n.mach.Topology().M() }

// Width is the number of float32 values carried per feature.
func (n *Node) Width() int { return n.width }

// Observability returns the Observatory wired into this node's cluster
// (or this process, for ListenNode). Nil without WithObservability.
func (n *Node) Observability() *Observatory { return n.cfg.obsv }

// Metrics returns the node's metrics registry. Nil without
// WithObservability.
func (n *Node) Metrics() *MetricsRegistry { return n.cfg.obsv.Registry() }

// Close releases a node created by ListenNode (no-op otherwise).
func (n *Node) Close() error {
	if n.closer != nil {
		return n.closer.Close()
	}
	return nil
}

// Reduction is a reusable routing configuration for fixed in/out index
// sets: configure once, reduce any number of value vectors (the
// PageRank pattern). Values are exchanged in the caller's original
// index order.
type Reduction struct {
	node *Node
	cfg  *core.Config
	om   orderMaps
	// own says the top Sets and order maps are this Reduction's alone, not
	// the prepared-sets entry's, so a Reconfigure retires them.
	own bool
}

// orderMaps translates between the caller's index order and the
// protocol's key (hash) order. Both are the maps NewSet reports, from a
// caller position to its key-ordered row (duplicates in the caller's in
// list share a row), applied by the protocol's own gather kernel on the
// way in and its scatter on the way out; a nil map is the identity (the
// caller's order is already key order), applied as one copy.
type orderMaps struct {
	in, out []int32
}

// Configure runs the downward configuration pass for the given index
// sets. in lists the indices whose reduced values this node wants; out
// lists the indices it will contribute values for. in may contain
// duplicates (each position receives the value); out must not.
func (n *Node) Configure(in, out []int32) (*Reduction, error) {
	inSet, outSet, om, err := n.sets.prepare(n.mach, in, out)
	if err != nil {
		return nil, err
	}
	cfg, err := n.mach.Configure(inSet, outSet)
	if err != nil {
		return nil, err
	}
	return &Reduction{node: n, cfg: cfg, om: om, own: n.sets == nil}, nil
}

// ConfigureReduce fuses configuration and reduction into one network
// pass — the efficient path when the index sets change on every call
// (minibatch training). It returns the reusable Reduction and the
// reduced values for in, in the caller's order. outVals is not retained.
func (n *Node) ConfigureReduce(in, out []int32, outVals []float32) (*Reduction, []float32, error) {
	inSet, outSet, om, err := prepareSets(n.mach, in, out)
	if err != nil {
		return nil, nil, err
	}
	staged := n.mach.StageOut(len(outSet) * n.width)
	if err := om.stageOut(staged, outVals, n.width); err != nil {
		return nil, nil, err
	}
	cfg, gathered, err := n.mach.ConfigureReduce(inSet, outSet, staged)
	if err != nil {
		return nil, nil, err
	}
	return &Reduction{node: n, cfg: cfg, om: om, own: true}, om.unstageIn(nil, gathered, n.width), nil
}

// TreeAllreduce runs the tree-topology baseline (§II-A1) in one shot:
// slower and memory-hungry on sparse data (the root holds the dense
// union) but useful as an oracle and for the ablation benchmarks. It
// returns the reduced in-values in caller order and the largest
// intermediate union size this machine held.
func (n *Node) TreeAllreduce(in, out []int32, outVals []float32) ([]float32, int, error) {
	inSet, outSet, om, err := prepareSets(n.mach, in, out)
	if err != nil {
		return nil, 0, err
	}
	// A tree pass exchanges nothing with the layer groups, so the arena's
	// lifetime argument does not cover it: it stages in a fresh buffer.
	staged := make([]float32, len(outSet)*n.width)
	if err := om.stageOut(staged, outVals, n.width); err != nil {
		return nil, 0, err
	}
	gathered, maxUnion, err := n.mach.TreeAllreduce(inSet, outSet, staged)
	if err != nil {
		return nil, 0, err
	}
	return om.unstageIn(nil, gathered, n.width), maxUnion, nil
}

// prepareSets turns the caller's index lists into key-ordered Sets and
// the maps between the two orders, built into blocks the machine's
// passes retired where they fit (Machine.NewSet). Callers that reduce over one vertex set
// pass the same slice twice; it is sorted once and shared.
func prepareSets(m *core.Machine, in, out []int32) (inSet, outSet sparse.Set, om orderMaps, err error) {
	inSet, om.in, err = m.NewSet(in)
	if err != nil {
		return nil, nil, om, fmt.Errorf("kylix: in indices: %w", err)
	}
	outSet, om.out = inSet, om.in
	if !sameSlice(in, out) {
		if outSet, om.out, err = m.NewSet(out); err != nil {
			return nil, nil, om, fmt.Errorf("kylix: out indices: %w", err)
		}
	}
	if len(outSet) != len(out) {
		return nil, nil, om, fmt.Errorf("kylix: out indices contain duplicates (%d unique of %d)", len(outSet), len(out))
	}
	return inSet, outSet, om, nil
}

func sameSlice(in, out []int32) bool {
	return len(in) == len(out) && (len(in) == 0 || &in[0] == &out[0])
}

// preparedSets is what prepareSets made for one rank's last Configure.
// The Sets and maps are the key: they rebuild the caller's lists
// exactly, so a call is checked against them element by element and
// callers may rewrite a slice in place.
type preparedSets struct {
	inSet, outSet sparse.Set
	om            orderMaps
}

// prepare is prepareSets through the entry: lists element-equal to the
// ones it was made from get its very Sets, so core's whole-set checks
// against a base configured from them alias in O(1); other lists
// refill it. A nil entry prepares afresh.
func (p *preparedSets) prepare(m *core.Machine, in, out []int32) (inSet, outSet sparse.Set, om orderMaps, err error) {
	if p != nil && p.inSet != nil && madeFrom(in, p.inSet, p.om.in) && madeFrom(out, p.outSet, p.om.out) {
		return p.inSet, p.outSet, p.om, nil
	}
	if inSet, outSet, om, err = prepareSets(m, in, out); err == nil && p != nil {
		p.inSet, p.outSet, p.om = inSet, outSet, om
	}
	return inSet, outSet, om, err
}

// madeFrom reports whether list is the one set and perm were prepared
// from: position i holds the index of its row perm[i], or of row i under
// the identity.
func madeFrom(list []int32, set sparse.Set, perm []int32) bool {
	n := len(set)
	if perm != nil {
		n = len(perm)
	}
	if len(list) != n {
		return false
	}
	for i, idx := range list {
		row := i
		if perm != nil {
			row = int(perm[i])
		}
		if idx != set[row].Index() {
			return false
		}
	}
	return true
}

// stageOut fills dst, a key-ordered out vector (one row per out index),
// from the caller's outVals. dst is what the protocol sends from, so the
// caller is free to overwrite outVals as soon as the call that staged it
// returns.
//
//kylix:hotpath
func (om *orderMaps) stageOut(dst, outVals []float32, width int) error {
	if len(outVals) != len(dst) {
		return fmt.Errorf("kylix: got %d values, want %d (%d out indices x width %d)", len(outVals), len(dst), len(dst)/width, width)
	}
	if om.out == nil {
		copy(dst, outVals)
	} else {
		sparse.ScatterInto(dst, om.out, outVals, width)
	}
	return nil
}

// unstageIn copies a key-ordered result that belongs to the protocol's
// arena into dst in the caller's order, growing dst only when its
// capacity is short, and returns it.
//
//kylix:hotpath
func (om *orderMaps) unstageIn(dst, gathered []float32, width int) []float32 {
	if om.in == nil {
		//kylix:allow hotpathalloc:append -- growing a result the caller gave no room for is the one allocation a pass makes; append skips slices.Grow's clear
		return append(dst[:0], gathered...)
	}
	n := len(om.in) * width
	dst = slices.Grow(dst[:0], n)[:n] // the same allocation; the gather writes every row
	sparse.GatherInto(dst, om.in, gathered, width, 0)
	return dst
}

// Missing reports how many requested in-indices had no contributor in
// this node's bottom range (0 under WithStrict).
func (r *Reduction) Missing() int { return r.cfg.Missing() }

// Reduce pushes this node's contribution (one Width-sized row per out
// index, in the order passed to Configure) and returns the reduced
// values for the in indices, in their original order. outVals is not
// retained: it is copied into the Reduction's own staging buffer before
// anything is sent, and the result is a fresh slice the caller owns.
func (r *Reduction) Reduce(outVals []float32) ([]float32, error) { return r.ReduceInto(nil, outVals) }

// ReduceInto is Reduce writing the result into dst, which it grows only
// when its capacity is short, and returns. dst may be outVals itself:
// outVals is staged before anything is sent.
func (r *Reduction) ReduceInto(dst, outVals []float32) ([]float32, error) {
	w := r.node.width
	staged := r.cfg.StageOut()
	if err := r.om.stageOut(staged, outVals, w); err != nil {
		return nil, err
	}
	gathered, err := r.cfg.Reduce(staged)
	if err != nil {
		return nil, err
	}
	return r.om.unstageIn(dst, gathered, w), nil
}

// Reconfigure rebinds the Reduction to new index sets incrementally,
// reusing the routing state the change does not touch: unchanged pieces
// cross the wire as two-byte markers and layers whose inputs did not
// move keep their unions and position maps. What it rebuilds goes into
// blocks earlier passes retired to the machine, and what it replaces is
// retired in turn, so sets that drift every step (ConfigureReduce, then
// Reconfigure) are followed without allocating their state twice.
//
// Reconfigure is collective: every live node must call it in the same
// round order (with its own, possibly unchanged, sets). It is safe
// exactly where Reduce is — same cluster membership, same topology,
// same SPMD call sequence. On error the Reduction is poisoned and must
// be replaced via Configure; see Config.Reconfigure.
func (r *Reduction) Reconfigure(in, out []int32) error {
	m := r.node.mach
	inSet, outSet, om, err := prepareSets(m, in, out)
	if err != nil {
		return err
	}
	wasIn, wasOut, was := r.cfg.InSet(), r.cfg.OutSet(), r.om
	if err := r.cfg.Reconfigure(inSet, outSet); err != nil {
		return err
	}
	if r.own {
		m.RetireSet(wasIn, was.in)
		m.RetireSet(wasOut, was.out)
	}
	r.om, r.own = om, true
	return nil
}

// ConfigDigest returns a 64-bit fingerprint of the Reduction's routing
// state (sets, groups, offsets, unions, position maps, bottom
// turnaround). Two nodes — or two runs — whose digests agree route
// identically; the chaos suite uses it to prove reconfiguration under
// faults converges to exactly the fault-free state.
func (r *Reduction) ConfigDigest() uint64 { return r.cfg.Digest() }
