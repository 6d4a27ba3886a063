// Package faultnet is a deterministic chaos layer for comm endpoints:
// it wraps any transport (memnet or tcpnet) and injects message drops,
// delays, duplicates, per-link reorders, crash-stop kills at arbitrary
// points mid-round, and rank-set partitions, all scripted by a seeded
// Plan. It exists to exercise the paper's §V fault-tolerance claim — a
// factor-s replicated butterfly completes through any failure pattern
// that leaves one live replica per group — under adversarial
// message-level faults, not just the gentle between-rounds machine
// kills of the original experiments.
//
// Determinism contract: every fault decision is a pure function of
// (Plan.Seed, sender, receiver, tag) plus the sender's own send count
// (for kills and partition windows). No wall clock ever participates in
// a decision — wall clock only paces delivery of messages already
// decided to be delayed — so the same seed and schedule produce the
// same per-link delivered message sequence on every run, on every
// transport, and across processes (each process derives identical
// decisions from the shared seed).
package faultnet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kylix/internal/comm"
)

// Plan scripts a fault schedule. The zero value (plus a Seed) injects
// nothing and is useful as a pure send-counting probe.
type Plan struct {
	// Seed drives every probabilistic decision. Two fabrics with the
	// same Seed and schedule make identical choices.
	Seed int64
	// Faulty lists the physical ranks whose *outbound* messages are
	// subject to Drop/Duplicate/Delay/Reorder and which Kills may
	// target. Empty means every rank is fault-prone. Restricting Faulty
	// to at most one replica per group (e.g. the upper half of an s=2
	// cluster) keeps the schedule inside the §V survivable regime:
	// every receiver still gets the clean replica's copy.
	Faulty []int
	// Drop is the per-message probability that a message from a faulty
	// sender vanishes (like a packet into a dead host).
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	// Duplicates are idempotent for the protocol: receives match one
	// message per (sender, tag) and surplus copies are inert.
	Duplicate float64
	// Delay is the probability a message is held for a random duration
	// in (0, MaxDelay] before delivery. Delivery stays FIFO per
	// (sender, receiver) link — delay models link latency, it never
	// reorders a link on its own.
	Delay float64
	// MaxDelay bounds injected delays. The duration is derived from the
	// seeded stream (deterministic); only the sleep itself uses wall
	// clock.
	MaxDelay time.Duration
	// Reorder is the probability a message is held back and delivered
	// immediately after the *next* message on the same link (a
	// deterministic adjacent swap).
	Reorder float64
	// Kills schedules crash-stop failures by the victim's own send
	// count, which lands the crash at a precise, reproducible point
	// mid-round.
	Kills []Kill
	// Partitions schedules rank-set partitions windowed by the sender's
	// send count.
	Partitions []Partition
}

// Kill crash-stops Rank after it has completed exactly AfterSends
// sends: the (AfterSends+1)-th send fails with comm.ErrClosed and the
// machine is dead from then on (receives fail, inbound traffic drops).
type Kill struct {
	Rank       int
	AfterSends int
}

// Partition separates rank groups: while active, a message whose
// sender and receiver fall in different Groups is silently dropped.
// Ranks listed in no group are unaffected. The partition is active
// while the sender's send count is in [From, Until); Until <= 0 means
// forever. Counting on the sender keeps activation deterministic
// without a global clock.
type Partition struct {
	Groups [][]int
	From   int
	Until  int
}

func (pt *Partition) active(count int64) bool {
	if count <= int64(pt.From) {
		return false
	}
	return pt.Until <= 0 || count <= int64(pt.Until)
}

func (pt *Partition) separates(from, to int) bool {
	gf, gt := -1, -1
	for g, ranks := range pt.Groups {
		for _, r := range ranks {
			if r == from {
				gf = g
			}
			if r == to {
				gt = g
			}
		}
	}
	return gf >= 0 && gt >= 0 && gf != gt
}

// Validate checks the plan's parameters.
func (p *Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"Drop", p.Drop}, {"Duplicate", p.Duplicate}, {"Delay", p.Delay}, {"Reorder", p.Reorder}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faultnet: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("faultnet: negative MaxDelay %v", p.MaxDelay)
	}
	if p.Delay > 0 && p.MaxDelay == 0 {
		return fmt.Errorf("faultnet: Delay %v needs a positive MaxDelay", p.Delay)
	}
	for _, k := range p.Kills {
		if k.Rank < 0 || k.AfterSends < 0 {
			return fmt.Errorf("faultnet: invalid kill %+v", k)
		}
	}
	return nil
}

// Fabric is the shared fault controller for one cluster: every
// machine's endpoint is wrapped by the same Fabric (in-process) or by a
// Fabric built from the same Plan (cross-process — decisions are
// seed-derived, so independent fabrics agree). It tracks kills,
// partitions and per-rank send counts, and owns the delayed-delivery
// machinery.
type Fabric struct {
	plan   Plan
	faulty map[int]bool // nil = all ranks fault-prone

	sizeOnce sync.Once
	size     int
	killed   []atomic.Bool
	sends    []atomic.Int64
	killsFor [][]Kill // per-rank kill schedule
	// killKind[rank] holds an armed one-shot protocol-step kill: the
	// value is comm.Kind+1 (0 = unarmed), and the rank crash-stops on
	// its next send of that kind. See KillOnKind.
	killKind []atomic.Int32

	mu      sync.Mutex
	eps     []comm.Endpoint // underlying endpoint per rank (closed on Kill)
	links   map[linkKey]*link
	manual  [][]int // manual partition groups (Partition/Heal)
	flushed chan struct{}
	closed  bool

	wg sync.WaitGroup // live link drainers

	stats struct {
		dropped, duplicated, delayed, reordered, partitioned atomic.Int64
	}

	// observer, when set, is called once per injected fault with the
	// affected rank (the sender for link faults, the victim for kills)
	// and the event name. Guarded by obsMu; called outside all locks.
	obsMu    sync.Mutex
	observer func(rank int, event string)
}

// SetObserver installs the fault-event hook (the observability layer's
// timeline feed). Pass nil to detach.
func (f *Fabric) SetObserver(fn func(rank int, event string)) {
	f.obsMu.Lock()
	f.observer = fn
	f.obsMu.Unlock()
}

// notify reports one injected fault to the observer, if any.
func (f *Fabric) notify(rank int, event string) {
	f.obsMu.Lock()
	fn := f.observer
	f.obsMu.Unlock()
	if fn != nil {
		fn(rank, event)
	}
}

// Stats counts the faults injected so far, so tests can assert the
// chaos actually engaged (a soak that passes because nothing fired
// proves nothing).
type Stats struct {
	Dropped, Duplicated, Delayed, Reordered, Partitioned int64
}

// Stats returns a snapshot of the injected-fault counters.
func (f *Fabric) Stats() Stats {
	return Stats{
		Dropped:     f.stats.dropped.Load(),
		Duplicated:  f.stats.duplicated.Load(),
		Delayed:     f.stats.delayed.Load(),
		Reordered:   f.stats.reordered.Load(),
		Partitioned: f.stats.partitioned.Load(),
	}
}

type linkKey struct{ from, to int }

// link carries the in-flight state of one (sender, receiver) stream:
// a FIFO of decided deliveries and at most one held-back (reordered)
// message. All fields are guarded by Fabric.mu.
type link struct {
	queue   []delivery
	running bool
	held    *delivery
}

type delivery struct {
	to    int
	tag   comm.Tag
	p     comm.Payload
	delay time.Duration
}

// New builds a Fabric from a plan.
func New(plan Plan) (*Fabric, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{
		plan:    plan,
		links:   make(map[linkKey]*link),
		flushed: make(chan struct{}),
	}
	if len(plan.Faulty) > 0 {
		f.faulty = make(map[int]bool, len(plan.Faulty))
		for _, r := range plan.Faulty {
			f.faulty[r] = true
		}
	}
	return f, nil
}

// Wrap interposes the fabric between the caller and ep. All endpoints
// of one cluster must be wrapped by fabrics sharing the same plan.
func (f *Fabric) Wrap(ep comm.Endpoint) comm.Endpoint {
	f.InitSize(ep.Size())
	rank := ep.Rank()
	f.mu.Lock()
	f.eps[rank] = ep
	f.mu.Unlock()
	return &endpoint{f: f, ep: ep, rank: rank}
}

// InitSize pre-sizes the fabric for an m-machine cluster so Kill and
// Sends work before the first Wrap. Wrap calls it automatically; later
// calls must agree on the size.
func (f *Fabric) InitSize(size int) {
	f.sizeOnce.Do(func() {
		f.size = size
		f.killed = make([]atomic.Bool, size)
		f.sends = make([]atomic.Int64, size)
		f.killsFor = make([][]Kill, size)
		f.killKind = make([]atomic.Int32, size)
		for _, k := range f.plan.Kills {
			if k.Rank < size {
				f.killsFor[k.Rank] = append(f.killsFor[k.Rank], k)
			}
		}
		f.mu.Lock()
		f.eps = make([]comm.Endpoint, size)
		f.mu.Unlock()
	})
	if size != f.size {
		panic(fmt.Sprintf("faultnet: endpoint size %d, fabric sized for %d", size, f.size))
	}
}

// Kill crash-stops a machine now: its endpoint operations fail, its
// blocked receives unblock with comm.ErrClosed (the underlying
// endpoint is closed), and messages addressed to it vanish.
func (f *Fabric) Kill(rank int) {
	if f.killed == nil || rank < 0 || rank >= f.size {
		return
	}
	if !f.killed[rank].CompareAndSwap(false, true) {
		return
	}
	f.notify(rank, "kill")
	f.mu.Lock()
	ep := f.eps[rank]
	f.mu.Unlock()
	if ep != nil {
		_ = ep.Close()
	}
}

// KillOnKind arms a one-shot protocol-step kill: the rank crash-stops
// at its next send of a message of the given kind (the send fails with
// comm.ErrClosed). Unlike the send-count Kills of the plan, the trigger
// is a protocol step, not a logical clock — which is how chaos suites
// land a crash exactly when a membership coordinator broadcasts its
// next control message mid-transition, independent of how many
// heartbeats it sent before. Arming again replaces a pending trigger;
// arming for a dead or out-of-range rank is a no-op.
func (f *Fabric) KillOnKind(rank int, kind comm.Kind) {
	if f.killKind == nil || rank < 0 || rank >= f.size {
		return
	}
	f.killKind[rank].Store(int32(kind) + 1)
}

// Killed reports whether a machine has crash-stopped (manually or by a
// scheduled Kill).
func (f *Fabric) Killed(rank int) bool {
	return f.killed != nil && rank >= 0 && rank < f.size && f.killed[rank].Load()
}

// Sends reports how many sends rank has attempted (the logical clock
// that Kills and Partition windows are scheduled against).
func (f *Fabric) Sends(rank int) int64 {
	if f.sends == nil || rank < 0 || rank >= f.size {
		return 0
	}
	return f.sends[rank].Load()
}

// Partition imposes a manual partition (in addition to any scheduled
// ones): ranks in different groups stop hearing each other until Heal.
func (f *Fabric) Partition(groups ...[]int) {
	f.mu.Lock()
	f.manual = groups
	f.mu.Unlock()
}

// Heal lifts a manual partition.
func (f *Fabric) Heal() {
	f.mu.Lock()
	f.manual = nil
	f.mu.Unlock()
}

// Flush releases every held-back message and cancels pending delay
// sleeps, then waits for the in-flight deliveries to reach the
// underlying transport. Call it between rounds (or before close) so no
// decided-but-undelivered message is stranded.
func (f *Fabric) Flush() {
	f.mu.Lock()
	for k, l := range f.links {
		if l.held != nil {
			d := *l.held
			l.held = nil
			l.queue = append(l.queue, d)
			f.startLocked(k, l)
		}
	}
	close(f.flushed) // cancel in-flight delay sleeps
	f.flushed = make(chan struct{})
	f.mu.Unlock()
	f.wg.Wait()
}

// Close flushes and shuts the fabric down. Underlying endpoints are not
// closed (except those of killed machines, already closed at kill
// time); the caller owns its transports.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	f.Flush()
}

// ---- decision core ----

type action struct {
	drop    bool
	copies  int
	delay   time.Duration
	reorder bool
}

// decide is the pure fault-decision function: (seed, from, to, tag) ->
// action, via a seeded rand.Rand per message. It never reads clocks or
// mutable state, which is what makes schedules replayable.
//
//kylix:deterministic
func (f *Fabric) decide(from, to int, tag comm.Tag) action {
	a := action{copies: 1}
	p := &f.plan
	if f.faulty != nil && !f.faulty[from] {
		return a
	}
	if p.Drop == 0 && p.Duplicate == 0 && p.Delay == 0 && p.Reorder == 0 {
		return a
	}
	rng := rand.New(rand.NewSource(int64(mix(uint64(p.Seed), uint64(from), uint64(to), uint64(tag)))))
	if rng.Float64() < p.Drop {
		a.drop = true
		return a
	}
	if rng.Float64() < p.Duplicate {
		a.copies = 2
	}
	if rng.Float64() < p.Delay {
		a.delay = time.Duration(1 + rng.Int63n(int64(p.MaxDelay)))
	}
	if rng.Float64() < p.Reorder {
		a.reorder = true
	}
	return a
}

// mix is a splitmix64-style combiner giving a well-scrambled stream
// seed per (seed, from, to, tag).
func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func (f *Fabric) partitioned(from, to int, count int64) bool {
	for i := range f.plan.Partitions {
		pt := &f.plan.Partitions[i]
		if pt.active(count) && pt.separates(from, to) {
			return true
		}
	}
	f.mu.Lock()
	manual := f.manual
	f.mu.Unlock()
	if manual != nil {
		pt := Partition{Groups: manual}
		return pt.separates(from, to)
	}
	return false
}

// ---- delivery machinery ----

// enqueue hands a decided message to the link, preserving per-link FIFO
// order (delays pace the drainer; they never overtake). A reordered
// message is parked until the link's next message pushes it out.
func (f *Fabric) enqueue(from, to int, tag comm.Tag, p comm.Payload, act action) {
	k := linkKey{from, to}
	f.mu.Lock()
	l := f.links[k]
	if l == nil {
		l = &link{}
		f.links[k] = l
	}
	d := delivery{to: to, tag: tag, p: p, delay: act.delay}
	if act.reorder && l.held == nil && !f.closed {
		// Park until the link's next message (or a Flush) pushes it out:
		// a deterministic adjacent swap, never an unbounded hold.
		l.held = &d
		f.mu.Unlock()
		return
	}
	for c := 0; c < act.copies; c++ {
		l.queue = append(l.queue, d)
	}
	if l.held != nil {
		held := *l.held
		l.held = nil
		l.queue = append(l.queue, held)
	}
	f.startLocked(k, l)
	f.mu.Unlock()
}

// startLocked launches the link drainer if idle. Caller holds f.mu.
//
//kylix:owned
func (f *Fabric) startLocked(k linkKey, l *link) {
	if l.running || len(l.queue) == 0 {
		return
	}
	l.running = true
	f.wg.Add(1)
	go f.drain(k, l)
}

// drain delivers a link's queue in FIFO order, sleeping each message's
// decided delay (cut short by Flush/Close). Underlying send errors are
// swallowed like any async transport fault — the protocol's receive
// timeouts and replication mask them.
func (f *Fabric) drain(k linkKey, l *link) {
	defer f.wg.Done()
	for {
		f.mu.Lock()
		if len(l.queue) == 0 {
			l.running = false
			f.mu.Unlock()
			return
		}
		d := l.queue[0]
		l.queue = l.queue[1:]
		flushed := f.flushed
		closed := f.closed
		ep := f.eps[k.from]
		f.mu.Unlock()
		if d.delay > 0 && !closed {
			select {
			case <-time.After(d.delay):
			case <-flushed:
			}
		}
		if ep != nil {
			_ = ep.Send(d.to, d.tag, d.p)
		}
	}
}

// ---- wrapped endpoint ----

type endpoint struct {
	f    *Fabric
	ep   comm.Endpoint
	rank int
}

func (e *endpoint) Rank() int { return e.ep.Rank() }
func (e *endpoint) Size() int { return e.ep.Size() }

// Send applies the fault schedule to one message. A crash-stopped
// sender fails with comm.ErrClosed; dropped, partitioned and
// dead-destination messages vanish silently (a send into a dead host
// never errors — the §V design needs survivors to keep streaming).
func (e *endpoint) Send(to int, tag comm.Tag, p comm.Payload) error {
	f := e.f
	if f.killed[e.rank].Load() {
		return comm.ErrClosed
	}
	count := f.sends[e.rank].Add(1)
	for _, k := range f.killsFor[e.rank] {
		if count > int64(k.AfterSends) {
			f.Kill(e.rank)
			return comm.ErrClosed
		}
	}
	if kk := f.killKind[e.rank].Load(); kk != 0 && tag.Kind() == comm.Kind(kk-1) {
		if f.killKind[e.rank].CompareAndSwap(kk, 0) {
			f.Kill(e.rank)
			return comm.ErrClosed
		}
	}
	if to < 0 || to >= f.size {
		return e.ep.Send(to, tag, p) // surface the transport's own range error
	}
	if f.killed[to].Load() {
		return nil
	}
	if f.partitioned(e.rank, to, count) {
		f.stats.partitioned.Add(1)
		f.notify(e.rank, "partition")
		return nil
	}
	act := f.decide(e.rank, to, tag)
	if act.drop {
		f.stats.dropped.Add(1)
		f.notify(e.rank, "drop")
		return nil
	}
	if act.copies > 1 {
		f.stats.duplicated.Add(1)
		f.notify(e.rank, "duplicate")
	}
	if act.delay > 0 {
		f.stats.delayed.Add(1)
		f.notify(e.rank, "delay")
	}
	if act.reorder {
		f.stats.reordered.Add(1)
		f.notify(e.rank, "reorder")
	}
	if act.copies == 1 && act.delay == 0 && !act.reorder {
		// Fast path: nothing pending on this link means synchronous
		// delivery cannot overtake anything.
		f.mu.Lock()
		l := f.links[linkKey{e.rank, to}]
		idle := l == nil || (!l.running && len(l.queue) == 0 && l.held == nil)
		f.mu.Unlock()
		if idle {
			return e.ep.Send(to, tag, p)
		}
	}
	f.enqueue(e.rank, to, tag, p, act)
	return nil
}

func (e *endpoint) Recv(from int, tag comm.Tag) (comm.Payload, error) {
	if e.f.killed[e.rank].Load() {
		return nil, comm.ErrClosed
	}
	return e.ep.Recv(from, tag)
}

func (e *endpoint) RecvGroup(groups [][]int, tag comm.Tag) (int, comm.Payload, error) {
	if e.f.killed[e.rank].Load() {
		return 0, nil, comm.ErrClosed
	}
	return e.ep.RecvGroup(groups, tag)
}

// Close flushes the fabric's in-flight deliveries (so a closing rank
// cannot strand messages it already decided to send) and closes the
// underlying endpoint.
func (e *endpoint) Close() error {
	e.f.Flush()
	return e.ep.Close()
}
