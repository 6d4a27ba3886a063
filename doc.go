// Package kylix is a sparse allreduce for commodity clusters: a Go
// implementation of "Kylix: A Sparse Allreduce for Commodity Clusters"
// (Zhao & Canny, ICPP 2014).
//
// In a sparse allreduce, every machine i of an m-machine cluster
// declares a set of in-indices (the features it wants reduced values
// for) and a set of out-indices with values (its contribution). Kylix
// routes the contributions down a nested, heterogeneous-degree butterfly
// network — scatter-reducing at every layer — and gathers the fully
// reduced values back up, delivering to each machine exactly the values
// it asked for. For the power-law data that dominates "Big Data"
// workloads, per-layer traffic shrinks geometrically (the "Kylix"
// profile), and layer degrees can be tuned so that every packet stays
// above the network's minimum efficient size — the failure mode that
// caps direct all-to-all designs.
//
// Quickstart (in-process cluster):
//
//	cluster, _ := kylix.NewCluster(8, kylix.WithDegrees(4, 2))
//	defer cluster.Close()
//	err := cluster.Run(func(node *kylix.Node) error {
//	    in := []int32{1, 2, 3}           // indices this node wants back
//	    out := []int32{2, 3, 4}          // indices this node contributes
//	    vals := []float32{1, 1, 1}       // one value per out index
//	    red, err := node.Configure(in, out)
//	    if err != nil {
//	        return err
//	    }
//	    got, err := red.Reduce(vals)     // got[i] = global sum for in[i]
//	    ...
//	})
//
// The same Node API runs over real TCP sockets (see ListenNode and
// cmd/kylix-node) and supports replication-based fault tolerance
// (WithReplication), pluggable reducers (sum, max, min, bitwise-or),
// multi-value features (WithWidth), fused configure+reduce for minibatch
// workloads whose index sets change every round, and derived stream
// networks (Node.Stream) so several independent reductions — say an
// OR-reduce sketch network plus a sum-reduce convergence counter — can
// interleave over one cluster.
//
// The 12 options, by what they choose: the topology (WithDegrees), the
// transport (WithTransport, WithRecvTimeout), the values (WithWidth,
// WithReducer, WithQuantization, WithStrict), fault tolerance
// (WithReplication, WithFaults, WithElastic) and visibility (WithTrace,
// WithObservability — two exports of one byte count: the transports'
// single event sink feeds one traffic store, read by Cluster.Traffic and
// by /metrics alike).
//
// Tag namespaces are not options, and there is one: the stream, a 16-bit
// field of every tag, each stream with the whole 32-bit round space. A
// tenant's stream is opened by Cluster.OpenStream, at most 64 at once and
// at most 4 passes queued or running on each, and purged from every
// mailbox when it closes (Stream.Close). A program's extra network is a
// stream derived by Node.Stream — in process, where the cluster's
// registry keeps derived and tenant ids apart, or on every rank across
// processes, closed there with Node.CloseStream. Node.Stream refuses an
// id already in use on the node.
//
// DesignDegrees implements the paper's §IV workflow for choosing optimal
// layer degrees from the data's power-law statistics, and the repository
// regenerates every table and figure of the paper's evaluation (see
// EXPERIMENTS.md and cmd/kylix-bench).
package kylix
