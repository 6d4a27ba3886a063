package membership

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"kylix/internal/comm"
	"kylix/internal/obs"
)

// ctlTag is the single control-plane tag. All control traffic shares
// it: the receiver consumes messages in arrival order via singleton
// RecvGroup groups (a pure any-source receive with no cancellation), so
// drops, duplicates and reorder injected by a fault fabric are
// absorbed by the protocol's idempotence instead of wedging a matched
// sequence.
var ctlTag = comm.MakeTag(comm.KindControl, 0, 0)

// opState is the only control operation: "here is my full state". The
// same message doubles as heartbeat, committed-epoch anti-entropy,
// proposal carrier and acknowledgement.
const opState = 1

// Phase is an agent's position in the epoch state machine:
// Stable -> Draining -> Rewiring -> Stable.
type Phase int32

const (
	// PhaseStable: serving the committed epoch.
	PhaseStable Phase = iota
	// PhaseDraining: a newer epoch is committed; in-flight collective
	// rounds are being quiesced (bounded by Options.DrainTimeout).
	PhaseDraining
	// PhaseRewiring: the drain finished and the agent is cutting its
	// committed record over to the new epoch (the data plane rewires
	// lazily at the next Run over the new members).
	PhaseRewiring
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseStable:
		return "stable"
	case PhaseDraining:
		return "draining"
	case PhaseRewiring:
		return "rewiring"
	default:
		return fmt.Sprintf("phase(%d)", int32(p))
	}
}

// Errors returned by Agent.Submit. ErrBusy and ErrNotMember (and
// *NotLeaderError) are retryable routing failures; anything else is a
// validation verdict on the change itself.
var (
	// ErrStopped: the agent is dead (its endpoint closed or Stop ran).
	ErrStopped = errors.New("membership: agent stopped")
	// ErrBusy: a proposal or adoption is already in flight; resubmit
	// after it settles.
	ErrBusy = errors.New("membership: epoch transition in flight")
	// ErrNotMember: the agent is a spare (or already evicted) and
	// cannot coordinate.
	ErrNotMember = errors.New("membership: agent is not a member")
)

// NotLeaderError reports a Submit sent to a non-coordinator, with the
// submitter's best guess of who the coordinator is.
type NotLeaderError struct {
	// Leader is the rank this agent currently believes coordinates.
	Leader int
}

// Error implements error.
func (e *NotLeaderError) Error() string {
	return fmt.Sprintf("membership: not the leader (try rank %d)", e.Leader)
}

// Options tune an Agent.
type Options struct {
	// Heartbeat is the gossip period (jittered per tick; default 10ms).
	Heartbeat time.Duration
	// SuspectAfter is how long a member may stay silent before it is
	// suspected dead (default 20x Heartbeat). It must comfortably
	// exceed Heartbeat times the fault plan's drop rate horizon: with
	// drop probability p, the chance of a false suspicion per window is
	// p^(SuspectAfter/Heartbeat).
	SuspectAfter time.Duration
	// DrainTimeout bounds the pre-cutover quiesce (default 2s). A
	// drain that times out proceeds anyway: in-flight old-epoch rounds
	// keep completing via replica racing while the new epoch serves.
	DrainTimeout time.Duration
	// ProposalTTL is how long a coordinator keeps an unacknowledged
	// proposal before dropping it so the operator can resubmit
	// (default 5x SuspectAfter — comfortably above worst-case gossip
	// latency, or stalled proposals thrash instead of committing).
	ProposalTTL time.Duration
	// AutoEvict lets the coordinator propose removal of suspected
	// members on its own, batched so the survivor count stays divisible
	// by Replication (until divisibility allows, dead members stay in
	// the record and replica racing masks them).
	AutoEvict bool
	// Replication is the §V replication factor s the member count must
	// stay divisible by (default 1).
	Replication int
	// Seed drives the gossip jitter (timing only — protocol decisions
	// never depend on it).
	Seed int64
	// Drain is the bounded-quiesce hook run before each cutover
	// (typically Cluster's active-run gate). Nil means cut over
	// immediately.
	Drain func(timeout time.Duration) bool
	// Metrics receives the control plane's numbers (nil = discard).
	Metrics *obs.MembershipMetrics
}

func (o *Options) defaults() {
	if o.Heartbeat == 0 {
		o.Heartbeat = 10 * time.Millisecond
	}
	if o.SuspectAfter == 0 {
		o.SuspectAfter = 20 * o.Heartbeat
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 2 * time.Second
	}
	if o.ProposalTTL == 0 {
		o.ProposalTTL = 5 * o.SuspectAfter
	}
	if o.Replication == 0 {
		o.Replication = 1
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewMembershipMetrics(nil)
	}
}

// Agent is one rank's membership state machine: it gossips its
// committed record, detects failures by heartbeat silence, elects the
// lowest unsuspected member as coordinator, and carries quorum-
// acknowledged epoch proposals to commit. Spare (non-member) agents
// run the same loops passively — they heartbeat nobody but adopt
// committed records that reach them, which is how a joiner learns the
// epoch that includes it.
type Agent struct {
	rank int
	ep   comm.Endpoint
	opts Options
	met  *obs.MembershipMetrics

	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu       sync.Mutex //kylix:lock membership-agent
	stopped  bool
	rec      Record // committed epoch
	phase    Phase
	prop     *Record // this agent's pending proposal (coordinator only)
	propAt   time.Time
	acks     map[int]bool // member acks for prop (incl. self)
	promise  *Record      // the proposal this agent has endorsed
	pending  *Record      // newest superseding record awaiting adoption
	adopting bool
	// Per-physical-rank liveness bookkeeping, sized to the transport.
	lastHeard []time.Time
	lastClock []int64
	lastFix   []time.Time // last anti-entropy correction sent per peer
	suspect   []bool
}

type outMsg struct {
	to int
	c  *comm.Control
}

// NewAgent starts the agent's gossip and receive loops over ep. The
// initial record is the cluster's epoch-1 membership; every agent
// (member or spare) must be given the same one.
//
//kylix:owned
func NewAgent(rank int, ep comm.Endpoint, initial Record, opts Options) *Agent {
	opts.defaults()
	size := ep.Size()
	a := &Agent{
		rank: rank, ep: ep, opts: opts, met: opts.Metrics,
		done:      make(chan struct{}),
		rec:       initial.Clone(),
		lastHeard: make([]time.Time, size),
		lastClock: make([]int64, size),
		lastFix:   make([]time.Time, size),
		suspect:   make([]bool, size),
	}
	now := time.Now()
	for i := range a.lastHeard {
		a.lastHeard[i] = now
	}
	a.met.EpochCurrent.SetMax(int64(a.rec.Epoch))
	a.wg.Add(2)
	go a.tickLoop()
	go a.recvLoop()
	return a
}

// Rank returns the agent's physical rank.
func (a *Agent) Rank() int { return a.rank }

// Record returns a copy of the committed epoch record.
func (a *Agent) Record() Record {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rec.Clone()
}

// Phase returns the agent's state-machine phase.
func (a *Agent) Phase() Phase {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.phase
}

// Settled reports whether the agent is Stable with no adoption queued —
// the per-agent half of the convergence predicate.
func (a *Agent) Settled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.phase == PhaseStable && a.pending == nil && !a.adopting
}

// Stopped reports whether the agent is dead.
func (a *Agent) Stopped() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stopped
}

// Stop shuts the agent down. Best-effort: the receive loop is poked
// with a self-send; if the transport is already dead the loop unblocks
// through ErrClosed (or its receive timeout) instead.
func (a *Agent) Stop() {
	if !a.markStopped() {
		return
	}
	if err := a.ep.Send(a.rank, ctlTag, &comm.Control{Op: opState}); err != nil {
		_ = err // endpoint already dead; recvLoop unblocks via ErrClosed
	}
}

// markStopped flips the stopped flag once; reports whether this call
// did the flipping.
func (a *Agent) markStopped() bool {
	first := false
	a.stopOnce.Do(func() {
		a.mu.Lock()
		a.stopped = true
		a.mu.Unlock()
		close(a.done)
		first = true
	})
	return first
}

// Submit asks this agent, as coordinator, to propose a membership
// change. On success the returned record is the proposed next epoch;
// commit happens asynchronously once a quorum of current members
// acknowledges. Routing failures (ErrBusy, ErrNotMember, ErrStopped,
// *NotLeaderError) are retryable; other errors reject the change
// itself.
func (a *Agent) Submit(ch Change) (Record, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped {
		return Record{}, ErrStopped
	}
	if !a.rec.HasMember(a.rank) {
		return Record{}, ErrNotMember
	}
	if leader := LeaderOf(a.rec.Members, a.suspectedLocked); leader != a.rank {
		return Record{}, &NotLeaderError{Leader: leader}
	}
	if a.prop != nil || a.pending != nil || a.adopting || a.phase != PhaseStable {
		return Record{}, ErrBusy
	}
	next, err := ch.Apply(a.rec, a.opts.Replication, a.rank)
	if err != nil {
		return Record{}, err
	}
	for _, m := range next.Members {
		if m < 0 || m >= a.ep.Size() {
			return Record{}, fmt.Errorf("membership: rank %d outside provisioned cluster [0,%d)", m, a.ep.Size())
		}
	}
	a.prop = &next
	a.propAt = time.Now()
	a.acks = map[int]bool{a.rank: true}
	a.maybeCommitLocked() // a single-member quorum commits immediately
	return next.Clone(), nil
}

func (a *Agent) suspectedLocked(rank int) bool {
	return rank != a.rank && rank >= 0 && rank < len(a.suspect) && a.suspect[rank]
}

// quorum is a majority of the epoch being transitioned away from.
func quorum(members int) int { return members/2 + 1 }

// maybeCommitLocked commits the pending proposal once a quorum of
// current members has endorsed it: the coordinator adopts the new
// record (drain first), and everyone else learns it as ordinary
// committed-state gossip.
func (a *Agent) maybeCommitLocked() {
	if a.prop == nil {
		return
	}
	n := 0
	for _, m := range a.rec.Members {
		if a.acks[m] {
			n++
		}
	}
	if n < quorum(len(a.rec.Members)) {
		return
	}
	p := a.prop
	a.prop, a.acks = nil, nil
	a.scheduleAdoptLocked(p)
}

// scheduleAdoptLocked queues a superseding record for adoption and
// makes sure the adoption goroutine is running. Adoption happens off
// the gossip loops so the bounded drain never silences heartbeats.
//
//kylix:owned
func (a *Agent) scheduleAdoptLocked(r *Record) {
	if a.pending == nil || r.Supersedes(*a.pending) {
		c := r.Clone()
		a.pending = &c
	}
	if !a.adopting {
		a.adopting = true
		a.wg.Add(1)
		go a.adoptLoop()
	}
}

// adoptLoop drains and cuts over to the newest pending record,
// repeating if more arrive mid-drain: Draining -> Rewiring -> Stable.
func (a *Agent) adoptLoop() {
	defer a.wg.Done()
	for {
		a.mu.Lock()
		target := a.pending
		a.pending = nil
		if target == nil || !target.Supersedes(a.rec) || a.stopped {
			a.adopting = false
			a.mu.Unlock()
			return
		}
		a.phase = PhaseDraining
		drain := a.opts.Drain
		timeout := a.opts.DrainTimeout
		a.mu.Unlock()

		start := time.Now()
		if drain != nil {
			drain(timeout)
		}
		drained := time.Since(start)

		now := time.Now()
		a.mu.Lock()
		a.phase = PhaseRewiring
		a.rec = *target
		if a.promise != nil && a.promise.Epoch <= a.rec.Epoch {
			a.promise = nil
		}
		if a.prop != nil && a.prop.Epoch <= a.rec.Epoch {
			a.prop, a.acks = nil, nil
		}
		// A fresh epoch starts with a clean liveness slate: everyone
		// was silent during the drain, and a newly joined member has
		// never been heard from at all.
		for _, m := range a.rec.Members {
			if m >= 0 && m < len(a.lastHeard) {
				a.lastHeard[m] = now
				a.suspect[m] = false
			}
		}
		a.phase = PhaseStable
		a.mu.Unlock()

		a.met.EpochTransitions.Inc()
		a.met.EpochCurrent.SetMax(int64(target.Epoch))
		a.met.DrainNs.Observe(drained.Nanoseconds())
	}
}

// newestLocked is the most advanced record this agent knows of —
// committed, or queued for adoption.
func (a *Agent) newestLocked() Record {
	if a.pending != nil && a.pending.Supersedes(a.rec) {
		return *a.pending
	}
	return a.rec
}

// tickLoop paces gossip with jittered heartbeats.
func (a *Agent) tickLoop() {
	defer a.wg.Done()
	rng := rand.New(rand.NewSource(a.opts.Seed + int64(a.rank)*1099511628211 + 1))
	// One reusable timer for every heartbeat. A per-tick time.After
	// would leave a dangling timer running up to 1.5 heartbeats past
	// Stop — an elastic cluster cycling agents accretes thousands of
	// them — so the timer's lifetime is bounded by the loop's.
	var t *time.Timer
	defer func() {
		if t != nil {
			t.Stop()
		}
	}()
	for {
		d := a.opts.Heartbeat/2 + time.Duration(rng.Int63n(int64(a.opts.Heartbeat)))
		if t == nil {
			t = time.NewTimer(d)
		} else {
			// Safe to Reset directly: the previous tick consumed t.C.
			t.Reset(d)
		}
		select {
		case <-a.done:
			return
		case <-t.C:
		}
		a.tick(time.Now())
	}
}

// tick refreshes suspicion, advances coordinator duties (auto-evict,
// proposal TTL, commit check) and gossips state: the coordinator to
// every member plus proposed joiners, members to their believed
// coordinator, spares to nobody.
func (a *Agent) tick(now time.Time) {
	a.mu.Lock()
	if a.stopped || !a.rec.HasMember(a.rank) {
		a.mu.Unlock()
		return
	}
	for _, m := range a.rec.Members {
		if m == a.rank || m < 0 || m >= len(a.suspect) {
			continue
		}
		stale := now.Sub(a.lastHeard[m]) > a.opts.SuspectAfter
		if stale && !a.suspect[m] {
			a.met.Suspected.Inc()
		}
		a.suspect[m] = stale
	}
	leader := LeaderOf(a.rec.Members, a.suspectedLocked)
	var targets []int
	if leader == a.rank {
		if a.prop != nil && now.Sub(a.propAt) > a.opts.ProposalTTL {
			a.prop, a.acks = nil, nil // stalled; let the operator resubmit
		}
		if a.opts.AutoEvict && a.prop == nil && a.pending == nil && !a.adopting {
			var dead []int
			for _, m := range a.rec.Members {
				if a.suspectedLocked(m) {
					dead = append(dead, m)
				}
			}
			if len(dead) > 0 {
				if next, err := (Change{Remove: dead}).Apply(a.rec, a.opts.Replication, a.rank); err == nil {
					a.prop = &next
					a.propAt = now
					a.acks = map[int]bool{a.rank: true}
					a.maybeCommitLocked()
				}
				// Divisibility not restorable yet (e.g. one dead rank in
				// an s=2 group): the dead member stays in the record and
				// replica racing masks it until eviction can batch up.
			}
		}
		for _, m := range a.rec.Members {
			if m != a.rank {
				targets = append(targets, m)
			}
		}
		if a.prop != nil {
			for _, m := range a.prop.Members {
				if m != a.rank && !a.rec.HasMember(m) {
					targets = append(targets, m)
				}
			}
		}
	} else {
		targets = []int{leader}
	}
	msgs := a.buildLocked(targets, now)
	a.mu.Unlock()
	a.sendAll(msgs)
}

// buildLocked assembles per-target state messages (each with its own
// clock echo).
func (a *Agent) buildLocked(targets []int, now time.Time) []outMsg {
	base := comm.Control{
		Op:      opState,
		Epoch:   a.rec.Epoch,
		Leader:  int32(a.rec.Leader),
		Members: toInt32(a.rec.Members),
		Degrees: toInt32(a.rec.Degrees),
		Clock:   now.UnixNano(),
	}
	if a.prop != nil {
		base.PropEpoch = a.prop.Epoch
		base.PropLeader = int32(a.prop.Leader)
		base.PropMembers = toInt32(a.prop.Members)
		base.PropDegrees = toInt32(a.prop.Degrees)
	}
	if a.promise != nil && a.promise.Epoch == a.rec.Epoch+1 {
		base.Ack = a.promise.Digest()
	}
	msgs := make([]outMsg, 0, len(targets))
	for _, to := range targets {
		if to < 0 || to >= a.ep.Size() || to == a.rank {
			continue
		}
		c := base
		c.Echo = a.lastClock[to]
		msgs = append(msgs, outMsg{to: to, c: &c})
	}
	return msgs
}

// sendAll delivers built messages outside the lock. ErrClosed means
// this rank is dead (killed or transport torn down) — the agent stops.
func (a *Agent) sendAll(msgs []outMsg) {
	for _, m := range msgs {
		if err := a.ep.Send(m.to, ctlTag, m.c); err != nil {
			if errors.Is(err, comm.ErrClosed) {
				a.markStopped()
			}
			return
		}
	}
}

// recvLoop consumes control messages in arrival order.
func (a *Agent) recvLoop() {
	defer a.wg.Done()
	groups := make([][]int, a.ep.Size())
	for i := range groups {
		groups[i] = []int{i}
	}
	for {
		select {
		case <-a.done:
			return
		default:
		}
		from, p, err := a.ep.RecvGroup(groups, ctlTag)
		if err != nil {
			if errors.Is(err, comm.ErrTimeout) {
				continue
			}
			a.markStopped() // ErrClosed: killed or transport shut down
			return
		}
		c, ok := p.(*comm.Control)
		if !ok {
			continue
		}
		a.handle(from, c, time.Now())
	}
}

// handle processes one incoming control message: liveness bookkeeping,
// RTT from the clock echo, adoption of superseding committed records,
// stale-epoch rejection with rate-limited anti-entropy, promise
// handling for proposals, and ack accounting for this agent's own
// proposal.
func (a *Agent) handle(from int, c *comm.Control, now time.Time) {
	if from == a.rank {
		return // self-poke from Stop
	}
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	if from >= 0 && from < len(a.lastHeard) {
		a.lastHeard[from] = now
		a.lastClock[from] = c.Clock
		a.suspect[from] = false
	}
	if c.Echo != 0 {
		if rtt := now.UnixNano() - c.Echo; rtt >= 0 {
			a.met.HeartbeatRTT.Observe(rtt)
		}
	}
	var replies []outMsg
	msgRec := Record{
		Epoch:   c.Epoch,
		Leader:  int(c.Leader),
		Members: toInts(c.Members),
		Degrees: toInts(c.Degrees),
	}
	cur := a.newestLocked()
	switch {
	case msgRec.Supersedes(cur):
		a.scheduleAdoptLocked(&msgRec)
	case cur.Supersedes(msgRec):
		// Stale epoch: reject, and answer (rate-limited) with our own
		// state so a lagging peer catches up fast.
		a.met.StaleEpochRejected.Inc()
		if from >= 0 && from < len(a.lastFix) && now.Sub(a.lastFix[from]) > a.opts.Heartbeat {
			a.lastFix[from] = now
			replies = append(replies, a.buildLocked([]int{from}, now)...)
		}
	}
	if c.PropEpoch != 0 && c.PropEpoch == a.rec.Epoch+1 && a.rec.HasMember(a.rank) {
		p := Record{
			Epoch:   c.PropEpoch,
			Leader:  int(c.PropLeader),
			Members: toInts(c.PropMembers),
			Degrees: toInts(c.PropDegrees),
		}
		if a.acceptPromiseLocked(&p) {
			a.promise = &p
			// Immediate endorsement straight to the proposer (the next
			// periodic gossip may be aimed at a different believed
			// leader).
			replies = append(replies, a.buildLocked([]int{p.Leader}, now)...)
		}
	}
	if a.prop != nil && c.Ack != 0 && c.Ack == a.prop.Digest() && a.rec.HasMember(from) {
		a.acks[from] = true
		a.maybeCommitLocked()
	}
	a.mu.Unlock()
	a.sendAll(replies)
}

// acceptPromiseLocked decides whether to endorse proposal p given any
// standing promise: re-offers of the same proposal are idempotent, a
// promise to a proposer now suspected dead is released, and duels
// between live proposers resolve toward the lower rank (which is also
// how leadership itself resolves).
func (a *Agent) acceptPromiseLocked(p *Record) bool {
	if a.promise == nil {
		return true
	}
	if a.promise.Epoch != p.Epoch {
		return p.Epoch == a.rec.Epoch+1
	}
	if a.promise.Digest() == p.Digest() {
		return true
	}
	if a.suspectedLocked(a.promise.Leader) {
		return true
	}
	return p.Leader < a.promise.Leader
}

func toInt32(vs []int) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = int32(v)
	}
	return out
}

func toInts(vs []int32) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}
