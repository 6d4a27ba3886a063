// Package memnet is the in-process cluster transport: every machine is a
// goroutine with a comm.Mailbox, sends are direct enqueues, and machine
// failure is injectable. It moves the same payloads and records the same
// wire sizes as the TCP transport, so protocol behaviour and traffic
// traces are identical across the two — only wall-clock differs, which
// the netsim model supplies.
package memnet

import (
	"fmt"
	"sync/atomic"
	"time"

	"kylix/internal/comm"
)

// Option configures a Network.
type Option func(*Network)

// WithRecvTimeout bounds every blocking receive; 0 waits forever. The
// default of 30s turns protocol deadlocks (e.g. an unreplicated network
// with a dead node) into errors instead of hangs.
func WithRecvTimeout(d time.Duration) Option {
	return func(n *Network) { n.timeout = d }
}

// WithObserver installs the transport event sink: f builds each rank's
// observer, told of that rank's sends and of its mailbox's receives. A
// nil f, or a nil result for a rank, leaves it unobserved.
func WithObserver(f func(rank int) comm.Observer) Option {
	return func(n *Network) { n.newObs = f }
}

// Network is an m-machine in-process cluster.
type Network struct {
	size    int
	boxes   []*comm.Mailbox
	dead    []atomic.Bool
	obs     []comm.Observer // per rank; nil entries are unobserved
	newObs  func(rank int) comm.Observer
	timeout time.Duration
}

// New creates a network of m machines.
func New(m int, opts ...Option) *Network {
	n := &Network{size: m, timeout: 30 * time.Second}
	for _, o := range opts {
		o(n)
	}
	n.boxes = make([]*comm.Mailbox, m)
	n.dead = make([]atomic.Bool, m)
	n.obs = make([]comm.Observer, m)
	for i := range n.boxes {
		n.boxes[i] = comm.NewMailbox(n.timeout)
		if n.newObs != nil {
			if o := n.newObs(i); o != nil {
				n.obs[i] = o
				n.boxes[i].SetObserver(o)
			}
		}
	}
	return n
}

// Size returns the machine count.
func (n *Network) Size() int { return n.size }

// Kill marks a machine dead: its inbound messages are dropped and its
// endpoint operations fail. Used by the fault-tolerance experiments.
// Kill is safe at any point, including while the victim is mid-round:
// its blocked receives fail with ErrClosed immediately (crash-stop),
// peers' sends to it become silent drops, and Run treats the victim's
// resulting transport errors as the injected failure rather than a
// program error.
func (n *Network) Kill(rank int) {
	n.dead[rank].Store(true)
	n.boxes[rank].Close()
}

// Dead reports whether a machine has been killed.
func (n *Network) Dead(rank int) bool { return n.dead[rank].Load() }

// Close shuts down every mailbox.
func (n *Network) Close() {
	for _, b := range n.boxes {
		b.Close()
	}
}

// CloseStream tears down one stream's namespace on every machine:
// queued messages dropped from the pending index, late deliveries
// discarded, blocked receives failed with ErrStreamClosed. The network
// itself stays live for every other stream.
func (n *Network) CloseStream(id comm.StreamID) {
	for _, b := range n.boxes {
		b.CloseStream(id)
	}
}

// StreamPending sums one stream's queued, undelivered messages across
// all machines (tests and leak diagnostics).
func (n *Network) StreamPending(id comm.StreamID) int {
	total := 0
	for _, b := range n.boxes {
		total += b.StreamPending(id)
	}
	return total
}

// IndexedTags sums the tags with undelivered messages across all
// machines (tests and leak diagnostics).
func (n *Network) IndexedTags() int {
	total := 0
	for _, b := range n.boxes {
		total += b.IndexedTags()
	}
	return total
}

// Endpoint returns machine rank's endpoint.
func (n *Network) Endpoint(rank int) comm.Endpoint {
	if rank < 0 || rank >= n.size {
		panic(fmt.Sprintf("memnet: rank %d out of [0,%d)", rank, n.size))
	}
	return &endpoint{net: n, rank: rank}
}

type endpoint struct {
	net  *Network
	rank int
}

func (e *endpoint) Rank() int { return e.rank }
func (e *endpoint) Size() int { return e.net.size }

func (e *endpoint) Send(to int, tag comm.Tag, p comm.Payload) error {
	if to < 0 || to >= e.net.size {
		return fmt.Errorf("memnet: send to rank %d out of [0,%d)", to, e.net.size)
	}
	if e.net.dead[e.rank].Load() {
		return comm.ErrClosed
	}
	// Charge the sender's NIC whether or not the target is alive. Payload
	// encoding (WireSize) exists purely for accounting on this zero-copy
	// transport, so it is skipped entirely when nobody is listening —
	// compressed config payloads would otherwise run their codec once per
	// send in untraced runs.
	if o := e.net.obs[e.rank]; o != nil {
		o.ObserveSend(e.rank, to, tag, p.WireSize(), comm.RawWireSize(p))
	}
	if e.net.dead[to].Load() {
		return nil // silently dropped, like a packet into a dead host
	}
	e.net.boxes[to].Deliver(e.rank, tag, p)
	return nil
}

func (e *endpoint) Recv(from int, tag comm.Tag) (comm.Payload, error) {
	return e.net.boxes[e.rank].Recv(from, tag)
}

func (e *endpoint) RecvGroup(groups [][]int, tag comm.Tag) (int, comm.Payload, error) {
	return e.net.boxes[e.rank].RecvGroup(groups, tag)
}

func (e *endpoint) Close() error {
	e.net.boxes[e.rank].Close()
	return nil
}

// Run executes fn concurrently on every live machine of the network (or
// on the given subset of ranks) and returns the combined errors, as
// comm.Run does over the network's endpoints.
func Run(n *Network, fn func(ep comm.Endpoint) error, ranks ...int) error {
	eps := make([]comm.Endpoint, n.size)
	for r := range eps {
		eps[r] = n.Endpoint(r)
	}
	return comm.Run(eps, n.Dead, fn, ranks...)
}
