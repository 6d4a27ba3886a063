package kylix

import (
	"fmt"
	"sync/atomic"
	"time"

	"kylix/internal/membership"
)

// ElasticOptions tunes the epoch-numbered membership control plane
// enabled by WithElastic. Zero values pick production defaults; tests
// shrink the timing fields to converge fast.
type ElasticOptions struct {
	// Spares is how many extra physical ranks to provision beyond the
	// initial member count. Spares run transports and membership agents
	// from the start but carry no data until a Join or Replace admits
	// them; ranks [m, m+Spares) are the spare pool.
	Spares int
	// Heartbeat is the control-plane gossip period (default 10ms).
	Heartbeat time.Duration
	// SuspectAfter is how long a member may stay silent before the
	// failure detector suspects it (default 20x Heartbeat).
	SuspectAfter time.Duration
	// DrainTimeout bounds the quiesce of in-flight Runs before each
	// epoch cutover (default 2s). A drain that times out proceeds
	// anyway; replica racing keeps old-epoch rounds completing.
	DrainTimeout time.Duration
	// ProposeTimeout bounds Join/Leave/Replace end to end, including
	// retries across coordinator failover (default 30s).
	ProposeTimeout time.Duration
	// DisableAutoEvict stops the coordinator from proposing removal of
	// suspected-dead members on its own. Eviction then happens only
	// through explicit Leave/Replace calls.
	DisableAutoEvict bool
	// Seed drives control-plane gossip jitter (timing only).
	Seed int64
}

func (e *ElasticOptions) defaults() {
	if e.ProposeTimeout == 0 {
		e.ProposeTimeout = 30 * time.Second
	}
}

// WithElastic enables live membership: the cluster runs an epoch-
// numbered, leader-coordinated control plane over the same transports
// as the data plane, and Cluster.Join / Leave / Replace change the
// member set between Runs. Each committed epoch re-derives the
// butterfly for the surviving logical size, and the next Run executes
// over the new members — with results bit-identical to a freshly
// built cluster of the same membership.
func WithElastic(o ElasticOptions) Option {
	return func(c *config) {
		e := o
		c.elastic = &e
	}
}

// DeadNodeError reports an operation aimed at a machine that is
// already dead (Kill of a killed rank).
type DeadNodeError struct {
	// Rank is the dead machine's physical rank.
	Rank int
}

// Error implements error.
func (e *DeadNodeError) Error() string {
	return fmt.Sprintf("kylix: node %d is already dead", e.Rank)
}

// runGate counts in-flight Runs so an epoch cutover can drain them:
// the membership agents' Drain hook blocks (bounded) until the data
// plane goes quiet.
type runGate struct {
	active atomic.Int64
}

func (g *runGate) enter() { g.active.Add(1) }
func (g *runGate) exit()  { g.active.Add(-1) }

// drain waits for in-flight Runs to finish, polling until quiet or
// timeout; reports whether the gate fully quiesced.
func (g *runGate) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for g.active.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// deadRank reports whether a physical rank has been killed.
func (c *Cluster) deadRank(rank int) bool {
	if c.fabric != nil && c.fabric.Killed(rank) {
		return true
	}
	return c.mem != nil && c.mem.Dead(rank)
}

// snapshot returns the newest committed membership record (elastic
// clusters only; callers must check c.svc first).
func (c *Cluster) snapshot() membership.Record {
	return c.svc.Snapshot()
}

// Members returns the physical ranks of the current epoch's members
// (for non-elastic clusters, all ranks).
func (c *Cluster) Members() []int {
	if c.svc == nil {
		members := make([]int, c.phys)
		for i := range members {
			members[i] = i
		}
		return members
	}
	return append([]int(nil), c.snapshot().Members...)
}

// Epoch returns the current membership epoch (1 is the initial
// membership; 0 for non-elastic clusters, which never transition).
func (c *Cluster) Epoch() uint64 {
	if c.svc == nil {
		return 0
	}
	return c.snapshot().Epoch
}

// Capacity returns the number of provisioned physical ranks —
// members plus spares.
func (c *Cluster) Capacity() int { return c.capacity }

// Join admits spare ranks as members: it proposes the change through
// the membership control plane, waits for a quorum of current members
// to acknowledge, drains in-flight Runs, and cuts every survivor over
// to the new epoch. The resulting member count must stay divisible by
// the replication factor. Blocks until all survivors converge.
func (c *Cluster) Join(ranks ...int) error {
	return c.proposeChange(membership.Change{Add: ranks})
}

// Leave removes members from the cluster. The departing ranks keep
// their transports (they return to the spare pool) but carry no data
// from the next epoch on.
func (c *Cluster) Leave(ranks ...int) error {
	return c.proposeChange(membership.Change{Remove: ranks})
}

// Replace swaps one member for a spare in a single epoch transition —
// the repair path after a machine dies. Member count and topology are
// unchanged.
func (c *Cluster) Replace(old, new int) error {
	return c.proposeChange(membership.Change{Add: []int{new}, Remove: []int{old}})
}

func (c *Cluster) proposeChange(ch membership.Change) error {
	if c.svc == nil {
		return fmt.Errorf("kylix: membership changes require WithElastic")
	}
	timeout := c.cfg.elastic.ProposeTimeout
	if _, err := c.svc.Propose(ch, timeout); err != nil {
		return err
	}
	_, err := c.svc.WaitConverged(timeout)
	return err
}
