package kylix

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"kylix/internal/comm"
	"kylix/internal/faultnet"
	"kylix/internal/membership"
	"kylix/internal/memnet"
	"kylix/internal/netsim"
	"kylix/internal/obs"
	"kylix/internal/stream"
	"kylix/internal/tcpnet"
	"kylix/internal/topo"
)

// ErrClusterClosed is returned by operations on a closed Cluster.
var ErrClusterClosed = errors.New("kylix: cluster closed")

// closeDrainTimeout bounds how long Close waits for in-flight Runs to
// finish before tearing transports anyway (stragglers then fail with
// comm.ErrClosed, which is the honest outcome of closing under load).
const closeDrainTimeout = 5 * time.Second

// Cluster is an in-process Kylix cluster: m machines connected by the
// chosen transport, ready to run SPMD allreduce programs. For
// cross-process deployments use ListenNode instead.
type Cluster struct {
	cfg      config
	bf       *topo.Butterfly
	phys     int
	capacity int
	mem      *memnet.Network
	tcp      []*tcpnet.Node
	fabric   *faultnet.Fabric
	// eps is every provisioned rank's endpoint on whichever transport the
	// cluster runs, behind the fault fabric when there is one: what passes
	// and the membership agents send and receive through.
	eps []comm.Endpoint
	// traffic is the store the transports' event sinks feed: the
	// Observatory's under WithObservability, a bare one under WithTrace
	// alone, nil with neither (sends are then not even sized).
	traffic *obs.Traffic
	obs     *obs.Observatory
	// Elastic control plane (nil without WithElastic): one membership
	// agent per provisioned rank plus the operator-side service, and the
	// gate that drains in-flight Runs before each epoch cutover.
	svc  *membership.Service
	gate runGate
	// roundBase is where the next Run's tag sequence starts; successive
	// runs over the same transports must never reuse tags (stale
	// replica-race cancellations would swallow them). Tenant streams
	// keep their own bases — each stream id is a whole fresh tag space.
	roundBase atomic.Uint32
	// nodes is what the default namespace keeps for its next Run (see
	// keptNodes).
	nodes atomic.Pointer[keptNodes]
	// closed latches Cluster.Close: set exactly once (Close is
	// idempotent), checked by every pass after it enters the run gate so
	// the close-time drain covers it.
	closed atomic.Bool
	// streams admits tenant streams, allocates their never-reused ids
	// and records the ids Node.Stream derives; smet is the stream
	// layer's metric bundle (live but unregistered without
	// WithObservability).
	streams *stream.Registry
	smet    *obs.StreamMetrics
}

// NewCluster creates a cluster of m physical machines. With
// WithReplication(s), the topology spans m/s logical machines and every
// logical machine runs s replicas.
func NewCluster(m int, opts ...Option) (*Cluster, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if m < 1 {
		return nil, fmt.Errorf("kylix: machine count %d must be >= 1", m)
	}
	if cfg.replication < 1 || m%cfg.replication != 0 {
		return nil, fmt.Errorf("kylix: machine count %d not divisible by replication factor %d", m, cfg.replication)
	}
	if !cfg.quant.Valid() {
		return nil, fmt.Errorf("kylix: invalid quantization mode %d", cfg.quant)
	}
	logical := m / cfg.replication
	bf, err := buildTopology(cfg, logical)
	if err != nil {
		return nil, err
	}
	capacity := m
	if cfg.elastic != nil {
		if cfg.elastic.Spares < 0 {
			return nil, fmt.Errorf("kylix: spare count %d must be >= 0", cfg.elastic.Spares)
		}
		cfg.elastic.defaults()
		capacity = m + cfg.elastic.Spares
	}

	if cfg.observe {
		cfg.obsv = obs.New(capacity, 0)
	}
	c := &Cluster{cfg: cfg, bf: bf, phys: m, capacity: capacity, obs: cfg.obsv,
		eps: make([]comm.Endpoint, capacity)}
	if cfg.faults != nil {
		fab, err := faultnet.New(*cfg.faults)
		if err != nil {
			return nil, err
		}
		fab.InitSize(capacity)
		if c.obs != nil {
			fab.SetObserver(c.obs.FaultObserver())
		}
		c.fabric = fab
	}
	var observer func(rank int) comm.Observer // nil: unobserved
	switch {
	case c.obs != nil:
		c.traffic, observer = c.obs.Traffic(), c.obs.Observer
	case cfg.trace:
		c.traffic = obs.NewTraffic(capacity)
		observer = c.traffic.Observer
	}
	switch cfg.transport {
	case TransportMemory:
		c.mem = memnet.New(capacity,
			memnet.WithRecvTimeout(cfg.recvTimeout),
			memnet.WithObserver(observer))
		for r := range c.eps {
			c.eps[r] = c.mem.Endpoint(r)
		}
	case TransportTCP:
		nodes, err := tcpnet.LocalCluster(capacity, tcpnet.Options{
			RecvTimeout: cfg.recvTimeout,
			Observer:    observer,
			Metrics:     c.obs.Transport(),
		})
		if err != nil {
			return nil, err
		}
		c.tcp = nodes
		for r, n := range nodes {
			c.eps[r] = n
		}
	default:
		return nil, fmt.Errorf("kylix: unknown transport %d", cfg.transport)
	}
	if c.fabric != nil {
		for r, ep := range c.eps {
			c.eps[r] = c.fabric.Wrap(ep)
		}
	}
	if cfg.elastic != nil {
		c.startElastic(m)
	}
	c.streams = stream.NewRegistry(maxOpenStreams)
	c.smet = obs.NewStreamMetrics(c.obs.Registry())
	return c, nil
}

// startElastic spins up the membership control plane: one agent per
// provisioned rank (members and spares alike) gossiping over the same
// transports as the data plane, plus the operator-side service.
func (c *Cluster) startElastic(m int) {
	e := c.cfg.elastic
	members := make([]int, m)
	for i := range members {
		members[i] = i
	}
	initial := membership.Record{
		Epoch:   1,
		Leader:  0,
		Members: members,
		Degrees: c.bf.Degrees(),
	}
	opts := membership.Options{
		Heartbeat:    e.Heartbeat,
		SuspectAfter: e.SuspectAfter,
		DrainTimeout: e.DrainTimeout,
		AutoEvict:    !e.DisableAutoEvict,
		Replication:  c.cfg.replication,
		Seed:         e.Seed,
		Drain:        c.gate.drain,
		Metrics:      obs.NewMembershipMetrics(c.obs.Registry()),
	}
	agents := make([]*membership.Agent, c.capacity)
	for r, ep := range c.eps {
		agents[r] = membership.NewAgent(r, ep, initial, opts)
	}
	c.svc = membership.NewService(agents, func(r int) bool { return !c.deadRank(r) })
}

func buildTopology(cfg config, logical int) (*topo.Butterfly, error) {
	degrees := cfg.degrees
	if degrees == nil {
		degrees = topo.Direct(logical)
	}
	bf, err := topo.New(degrees)
	if err != nil {
		return nil, err
	}
	if bf.M() != logical {
		return nil, fmt.Errorf("kylix: degrees %v span %d machines, cluster has %d logical", degrees, bf.M(), logical)
	}
	return bf, nil
}

// Size returns the physical machine count — for an elastic cluster,
// the current epoch's member count.
func (c *Cluster) Size() int {
	if c.svc != nil {
		return len(c.snapshot().Members)
	}
	return c.phys
}

// LogicalSize returns the machine count the topology spans (Size divided
// by the replication factor).
func (c *Cluster) LogicalSize() int { return c.Size() / c.cfg.replication }

// Degrees returns the butterfly degrees in use — for an elastic
// cluster, the current epoch's degrees.
func (c *Cluster) Degrees() []int {
	if c.svc != nil {
		return c.snapshot().Degrees
	}
	return c.bf.Degrees()
}

// Kill marks a physical machine dead — at any point, including
// mid-round. With WithFaults the kill goes through the fault fabric and
// works on both transports; otherwise it requires TransportMemory. A
// replicated cluster keeps functioning as long as every replica group
// retains a live member. Killing an already-dead machine is idempotent
// and reports it with a *DeadNodeError.
func (c *Cluster) Kill(rank int) error {
	if rank < 0 || rank >= c.capacity {
		return fmt.Errorf("kylix: rank %d outside provisioned cluster [0,%d)", rank, c.capacity)
	}
	if c.deadRank(rank) {
		return &DeadNodeError{Rank: rank}
	}
	switch {
	case c.fabric != nil:
		c.fabric.Kill(rank)
		if c.mem != nil {
			c.mem.Kill(rank)
		}
	case c.mem != nil:
		c.mem.Kill(rank)
	default:
		return fmt.Errorf("kylix: failure injection without WithFaults requires TransportMemory")
	}
	if c.svc != nil {
		if a := c.svc.Agent(rank); a != nil {
			a.Stop()
		}
	}
	return nil
}

// Faults returns the live fault controller of a cluster built with
// WithFaults (nil otherwise): manual kills, partitions, per-rank send
// counts and Flush.
func (c *Cluster) Faults() *FaultInjector { return c.fabric }

// Metrics returns the cluster's metrics registry — reconnect counters,
// receive-wait histograms, per-layer byte volumes and the rest of the
// observability layer's numbers. Nil without WithObservability.
func (c *Cluster) Metrics() *MetricsRegistry { return c.obs.Registry() }

// Observability returns the cluster's Observatory: span timelines plus
// the Chrome trace / timeline exporters. Nil without WithObservability.
func (c *Cluster) Observability() *Observatory { return c.obs }

// Run executes fn concurrently on every live machine and waits for all
// of them. Each machine's fn receives its own Node; returning an error
// from any machine fails the run. Runs may be repeated on the same
// cluster (failures can be injected in between); each run's message tags
// continue where the previous run's stopped.
//
// On an elastic cluster each Run executes over the current epoch's
// membership: the member ranks run fn over the surviving machines mapped
// to dense ranks (replica.Wrap), on the epoch's own butterfly — exactly
// the cluster shape a fresh deployment of those machines would have.
//
// A Reduction is usable only inside the Run that made it: the next Run
// resets the nodes it keeps, whose tags start past every round this one
// used, and a Configure there takes over the last Run's routing state.
func (c *Cluster) Run(fn func(*Node) error) error {
	return c.runPass(c.cfg, &c.roundBase, &c.nodes, fn)
}

// keptNodes is one tag namespace's Nodes, one per physical rank, as a
// Run hands them to the next: each with its wrapped endpoint, its
// machine (the arena, and the base the next Configure ships its markers
// against) and the sets of its last Configure, which an equal one
// reuses. A Run takes them all and puts its own back only if it returned
// nil on every rank: a failed Run's memory may still be read by a
// straggler, and its ranks' bases may differ. Nodes of another
// membership epoch are dropped too — a Replace can keep a survivor's
// rank and degrees but not its peers' bases. A second concurrent pass in
// one namespace (which tag accounting does not support anyway) finds
// nothing and builds fresh.
type keptNodes struct {
	epoch uint64 // the membership epoch of the Run that left them
	ranks []*Node
}

// runPass is the shared collective-pass runner behind Cluster.Run and
// Stream.Run: it executes fn on every live machine with nodes built
// from cfg, or kept from the namespace's last Run, accounting consumed
// tag rounds into base so the caller's next pass starts on fresh tags.
// cfg.stream selects the tag namespace the pass's nodes mint into; kept
// is that namespace's.
func (c *Cluster) runPass(cfg config, base *atomic.Uint32, kept *atomic.Pointer[keptNodes], fn func(*Node) error) error {
	// Enter the gate before the closed check: Close sets the flag and
	// then drains the gate, so every pass that got past this check is
	// covered by the close-time drain, and every pass entering after the
	// flag is set fails here without touching the (possibly torn-down)
	// transports.
	c.gate.enter()
	defer c.gate.exit()
	if c.closed.Load() {
		return ErrClusterClosed
	}
	// Epoch snapshot: members == nil means the static full cluster.
	var members []int
	var epoch uint64
	bf := c.bf
	if c.svc != nil {
		rec := c.snapshot()
		ebf, err := topo.New(rec.Degrees)
		if err != nil {
			return fmt.Errorf("kylix: epoch %d degrees %v: %w", rec.Epoch, rec.Degrees, err)
		}
		if ebf.M() != len(rec.Members)/c.cfg.replication {
			return fmt.Errorf("kylix: epoch %d degrees %v span %d machines, membership has %d logical",
				rec.Epoch, rec.Degrees, ebf.M(), len(rec.Members)/c.cfg.replication)
		}
		members, bf, epoch = rec.Members, ebf, rec.Epoch
	}
	held := kept.Swap(nil)
	if held == nil || held.epoch != epoch {
		held = &keptNodes{ranks: make([]*Node, c.capacity)}
	}
	taken := &keptNodes{epoch: epoch, ranks: make([]*Node, c.capacity)}
	baseRound := base.Load()
	var maxUsed atomic.Uint32
	body := func(ep comm.Endpoint) (err error) {
		physRank := ep.Rank()
		node := held.ranks[physRank]
		if node == nil {
			if node, err = newNode(ep, members, bf, cfg, physRank); err != nil {
				return err
			}
			node.streams = c.streams
		}
		node.reset(baseRound)
		if err = fn(node); err == nil {
			taken.ranks[physRank] = node // nil stays for a rank that did not run
		}
		if err != nil && c.fabric != nil && c.fabric.Killed(physRank) {
			// The machine crash-stopped under the fault plan: its own
			// failed operations are the injected fault, not a program
			// error. Survivors' results are what the run is judged on.
			err = nil
		}
		for {
			used := node.roundsUsed()
			cur := maxUsed.Load()
			if used <= cur || maxUsed.CompareAndSwap(cur, used) {
				break
			}
		}
		return err
	}
	err := comm.Run(c.eps, c.deadRank, body, members...)
	base.Store(baseRound + maxUsed.Load())
	if err == nil {
		kept.Store(taken)
	}
	return err
}

// Traffic returns the layer-by-layer traffic recorded so far (requires
// WithTrace) together with modelled EC2 times under the paper's cost
// model. threads is the per-node send/receive concurrency to model.
func (c *Cluster) Traffic(threads int) (*TrafficReport, error) {
	if !c.cfg.trace {
		return nil, fmt.Errorf("kylix: traffic recording not enabled; construct the cluster with WithTrace()")
	}
	return buildTrafficReport(c.traffic, netsim.EC2(), threads), nil
}

// ResetTraffic clears recorded traffic (e.g. to time configuration and
// reduction separately).
func (c *Cluster) ResetTraffic() {
	if c.cfg.trace {
		c.traffic.Reset()
	}
}

// Close releases all transports (stopping the membership control plane
// and flushing any in-flight injected faults first). It is idempotent
// and safe concurrent with in-flight Runs: the closed flag stops new
// passes at the run gate, then Close drains the gate (bounded by
// closeDrainTimeout) so live passes finish before their transports are
// torn down. A drain that times out proceeds anyway — stragglers fail
// with comm.ErrClosed rather than hanging teardown forever. The default
// namespace's kept nodes and their machine memory go with them (a
// Stream's with its Close).
//
// The returned error joins the terminal stream errors of the TCP
// transports: a run that silently degraded (sticky stream failures,
// half-closed peers) surfaces here rather than vanishing at teardown.
// Later calls return nil.
func (c *Cluster) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.gate.drain(closeDrainTimeout)
	if c.svc != nil {
		c.svc.Stop()
	}
	if c.fabric != nil {
		c.fabric.Close()
	}
	if c.mem != nil {
		c.mem.Close()
	}
	c.nodes.Store(nil)
	return tcpnet.CloseAll(c.tcp)
}

// closeStreamTransports purges one stream's namespace from every
// machine's mailbox on whichever transport the cluster runs.
func (c *Cluster) closeStreamTransports(id comm.StreamID) {
	if c.mem != nil {
		c.mem.CloseStream(id)
	}
	for _, n := range c.tcp {
		n.CloseStream(id)
	}
}

// ListenNode joins a cross-process TCP cluster: addrs lists every
// machine's listen address (one process per rank calls ListenNode with
// its own rank). The returned Node is ready for Configure/Reduce once
// all peers are up; Close releases it.
func ListenNode(rank int, addrs []string, opts ...Option) (*Node, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.elastic != nil {
		return nil, fmt.Errorf("kylix: WithElastic requires an in-process Cluster (membership agents span every rank)")
	}
	if cfg.trace {
		return nil, fmt.Errorf("kylix: WithTrace requires an in-process Cluster (a traffic report spans every rank's sends; a single node exports its own byte counters with WithObservability)")
	}
	if cfg.replication < 1 || len(addrs)%cfg.replication != 0 {
		return nil, fmt.Errorf("kylix: %d machines not divisible by replication %d", len(addrs), cfg.replication)
	}
	bf, err := buildTopology(cfg, len(addrs)/cfg.replication)
	if err != nil {
		return nil, err
	}
	if cfg.observe {
		// Each process observes its own rank; the other ranks' tracers
		// exist but stay empty.
		cfg.obsv = obs.New(len(addrs), 0)
	}
	tn, err := tcpnet.Listen(rank, addrs, tcpnet.Options{
		RecvTimeout: cfg.recvTimeout,
		Observer:    cfg.obsv.Observer,
		Metrics:     cfg.obsv.Transport(),
	})
	if err != nil {
		return nil, err
	}
	var ep comm.Endpoint = tn
	var closer io.Closer = tn
	if cfg.faults != nil {
		// Cross-process fault injection: every process builds its own
		// fabric from the shared plan; decisions are seed-derived, so
		// the fabrics agree without coordination.
		fab, ferr := faultnet.New(*cfg.faults)
		if ferr != nil {
			_ = tn.Close()
			return nil, ferr
		}
		if cfg.obsv != nil {
			fab.SetObserver(cfg.obsv.FaultObserver())
		}
		ep = fab.Wrap(tn)
		closer = &fabricCloser{fab: fab, under: tn}
	}
	node, err := newNode(ep, nil, bf, cfg, rank)
	if err != nil {
		_ = tn.Close()
		return nil, err
	}
	node.closer = closer
	node.tn = tn
	return node, nil
}

// fabricCloser flushes a node's fault fabric before closing its
// transport so decided-but-delayed messages are not stranded.
type fabricCloser struct {
	fab   *faultnet.Fabric
	under io.Closer
}

func (f *fabricCloser) Close() error {
	f.fab.Close()
	return f.under.Close()
}
