package comm

import (
	"sync"
	"time"
)

// mailKey names one sender's slot under a tag.
type mailKey struct {
	from int
	tag  Tag
}

// entry is one undelivered message.
type entry struct {
	from int
	p    Payload
}

// tagQueue is one tag's undelivered messages in arrival order, which is
// FIFO per sender — the only order anything relies on. The live entries
// are q[head:]: taking the oldest entry advances head, so a control tag
// with hundreds of messages queued drains in constant time each, and
// any other entry is removed by copying its successors down. The slice
// is never resliced from the front, which would shave capacity off a
// recycled queue until every round allocated a new one.
type tagQueue struct {
	q    []entry
	head int
}

// push appends an arrival. A queue that never drains (a fixed control
// tag under steady traffic) would grow by its consumed prefix forever;
// once that prefix is half of a full slice, the live entries move down
// over it instead of the slice growing.
func (tq *tagQueue) push(e entry) {
	if len(tq.q) == cap(tq.q) && tq.head > 0 && 2*tq.head >= len(tq.q) {
		n := copy(tq.q, tq.q[tq.head:])
		clear(tq.q[n:])
		tq.q, tq.head = tq.q[:n], 0
	}
	//kylix:allow hotpathalloc:append -- q is a recycled queue from the free list; growth is amortized zero
	tq.q = append(tq.q, e)
}

// remove deletes entry i (head <= i < len), keeping the order of the
// rest and no reference to the payload.
func (tq *tagQueue) remove(i int) {
	if i == tq.head {
		tq.q[i] = entry{}
		tq.head++
		return
	}
	last := len(tq.q) - 1
	copy(tq.q[i:], tq.q[i+1:])
	tq.q[last] = entry{}
	tq.q = tq.q[:last]
}

// dropFrom deletes every entry of one sender and reports whether there
// was any.
func (tq *tagQueue) dropFrom(from int) bool {
	n := tq.head
	for _, e := range tq.q[tq.head:] {
		if e.from != from {
			tq.q[n] = e
			n++
		}
	}
	dropped := n < len(tq.q)
	clear(tq.q[n:])
	tq.q = tq.q[:n]
	return dropped
}

// maxFreeQueues bounds the recycled queue pool. Steady-state protocol
// traffic keeps at most a handful of tags live at once; the bound only
// matters after a pathological burst.
const maxFreeQueues = 128

// Mailbox is the matched-receive buffer shared by all transports: an
// unbounded queue of undelivered messages per tag with blocking
// consumers. Sends into a Mailbox never block, which realizes the
// paper's requirement that nodes communicate opportunistically and
// never stall on slow peers.
//
// The steady-state receive path is allocation-free: an emptied queue is
// recycled through a small free list, and the timeout machinery is one
// lazily started watchdog goroutine per Mailbox (not per blocked
// receive), so a warm reduction round allocates nothing here.
type Mailbox struct {
	mu   sync.Mutex //kylix:lock mailbox obsfree — observers fire after delivery state is settled and released
	cond *sync.Cond
	// pending is the one index of undelivered messages. A tag is present
	// exactly while it has at least one.
	pending map[Tag]*tagQueue
	free    []*tagQueue // recycled when emptied, capacity intact
	closed  bool
	timeout time.Duration
	// discard marks a (sender, tag) slot whose message is still in flight
	// and must be dropped on arrival: the copy of a replica that lost its
	// race (§V-B cancellation). Deliver releases the mark when it drops
	// the copy.
	discard map[mailKey]struct{}
	// deadStreams marks closed stream namespaces. Deliveries into a
	// dead stream are dropped (late TCP window replays and
	// faultnet-delayed frames must not re-leak index entries), and
	// blocked receives on it fail with ErrStreamClosed. Lazily
	// allocated: single-tenant mailboxes never pay for the map.
	deadStreams map[StreamID]struct{}
	// parked counts the receivers blocked in waitLocked, so in-package
	// tests wait for a receiver to park instead of sleeping.
	parked int
	// watch is set once the watchdog goroutine (periodic broadcasts so
	// deadlines are observed with no traffic) has been started.
	watch bool
	done  chan struct{} // closed by Close; stops the watchdog
	// obs, when non-nil, is notified of every completed receive. Set
	// before the mailbox is shared between goroutines.
	obs Observer
}

// SetObserver installs the event sink whose receive half the mailbox
// reports to (the owning transport reports the sends). Must be called
// before the mailbox is used concurrently (transports install it at
// construction time).
func (m *Mailbox) SetObserver(o Observer) { m.obs = o }

// NewMailbox creates a Mailbox whose blocking receives fail with
// ErrTimeout after the given duration (0 means wait forever).
func NewMailbox(timeout time.Duration) *Mailbox {
	m := &Mailbox{
		pending: make(map[Tag]*tagQueue),
		discard: make(map[mailKey]struct{}),
		timeout: timeout,
		done:    make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Deliver adds a message to its tag's queue. It is called by transport
// receive paths and never blocks. A message for a closed mailbox, a dead
// stream or a cancelled (from, tag) slot is dropped.
//
//kylix:hotpath
func (m *Mailbox) Deliver(from int, tag Tag, p Payload) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	k := mailKey{from, tag}
	if _, lost := m.discard[k]; lost {
		delete(m.discard, k)
		m.mu.Unlock()
		return
	}
	if m.streamDeadLocked(tag) {
		m.mu.Unlock()
		return
	}
	tq := m.pending[tag]
	if tq == nil {
		if n := len(m.free); n > 0 {
			tq, m.free = m.free[n-1], m.free[:n-1]
		} else {
			//kylix:allow hotpathalloc:new -- only while the free list is cold; a warm round recycles
			tq = new(tagQueue)
		}
		m.pending[tag] = tq
	}
	tq.push(entry{from, p})
	m.mu.Unlock()
	m.cond.Broadcast()
}

// streamDeadLocked reports whether tag's stream namespace has been
// closed. The len check keeps the single-tenant common case to one
// branch with no map probe. Caller holds m.mu.
func (m *Mailbox) streamDeadLocked(tag Tag) bool {
	if len(m.deadStreams) == 0 {
		return false
	}
	_, dead := m.deadStreams[tag.Stream()]
	return dead
}

// takeLocked removes and returns the oldest pending message under tag
// whose sender is in one of the groups. It walks what has actually
// arrived, so a receive costs one membership check per pending entry,
// not a probe per possible sender. A sender that shares its group —
// replicas carrying copies of one logical message — wins the race for
// it: its co-members' copies are cancelled. Caller holds m.mu.
func (m *Mailbox) takeLocked(groups [][]int, tag Tag) (int, Payload, bool) {
	tq := m.pending[tag]
	if tq == nil {
		return 0, nil, false
	}
	for i := tq.head; i < len(tq.q); i++ {
		e := tq.q[i]
		g := groupOf(groups, e.from)
		if g == nil {
			continue
		}
		tq.remove(i)
		if len(g) > 1 {
			m.cancelLocked(tq, g, e.from, tag)
		}
		if tq.head == len(tq.q) {
			delete(m.pending, tag)
			tq.q, tq.head = tq.q[:0], 0
			if len(m.free) < maxFreeQueues {
				//kylix:allow hotpathalloc:append -- free is capped at maxFreeQueues; steady state never grows
				m.free = append(m.free, tq)
			}
		}
		return e.from, e.p, true
	}
	return 0, nil, false
}

// groupOf returns the group listing from, or nil.
func groupOf(groups [][]int, from int) []int {
	for _, g := range groups {
		for _, f := range g {
			if f == from {
				return g
			}
		}
	}
	return nil
}

// cancelLocked settles a race won by winner: a losing co-member's
// queued copies are dropped on the spot, and a loser whose copy has not
// arrived yet is marked so Deliver drops it when it does. Caller holds
// m.mu.
func (m *Mailbox) cancelLocked(tq *tagQueue, group []int, winner int, tag Tag) {
	for _, loser := range group {
		if loser != winner && !tq.dropFrom(loser) {
			m.discard[mailKey{loser, tag}] = struct{}{}
		}
	}
}

// waitState tracks one blocked receive's deadline without allocating.
type waitState struct {
	deadline, start time.Time
}

// elapsed is how long the receive has been blocked (zero when the
// message was already queued and no wait happened).
func (ws *waitState) elapsed() time.Duration {
	if ws.start.IsZero() {
		return 0
	}
	return time.Since(ws.start)
}

// waitLocked arms the timeout machinery and parks the caller on the
// condition variable; it returns false once the deadline has expired.
// Caller holds m.mu.
func (m *Mailbox) waitLocked(ws *waitState) bool {
	if ws.start.IsZero() {
		ws.start = time.Now()
		if m.timeout > 0 {
			ws.deadline = ws.start.Add(m.timeout)
			m.startWatchdogLocked()
		}
	} else if m.timeout > 0 && time.Now().After(ws.deadline) {
		return false
	}
	m.parked++
	m.cond.Wait()
	m.parked--
	return true
}

// observeRecv reports a finished receive to the observer, outside the
// mailbox lock. No-op without an observer (one nil check).
func (m *Mailbox) observeRecv(from int, tag Tag, p Payload, ws *waitState, err error) {
	if m.obs == nil {
		return
	}
	bytes := 0
	if p != nil {
		bytes = p.WireSize()
	}
	m.obs.ObserveRecv(from, tag, bytes, ws.elapsed(), err)
}

// startWatchdogLocked launches the per-Mailbox watchdog that broadcasts
// periodically so sleeping receivers observe their deadlines even with
// no traffic. Started lazily on the first blocking wait — a mailbox
// whose receives always find messages ready pays nothing — and exactly
// once, so the hot path never spawns goroutines. Caller holds m.mu.
//
//kylix:coldpath
//kylix:owned
func (m *Mailbox) startWatchdogLocked() {
	if m.watch {
		return
	}
	m.watch = true
	interval := m.timeout / 4
	done := m.done
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				m.cond.Broadcast()
			}
		}
	}()
}

// recv is the one place a receiver waits: it blocks until a message
// with the tag is pending from a sender in one of the groups and takes
// it, or fails because the mailbox closed, the tag's stream closed or
// the deadline passed. ws records the wait for the caller's observer
// report, which happens outside the lock.
//
//kylix:hotpath
func (m *Mailbox) recv(groups [][]int, tag Tag, ws *waitState) (int, Payload, error) {
	m.mu.Lock()
	for {
		if m.closed {
			m.mu.Unlock()
			return -1, nil, ErrClosed
		}
		if from, p, ok := m.takeLocked(groups, tag); ok {
			m.mu.Unlock()
			return from, p, nil
		}
		if m.streamDeadLocked(tag) {
			m.mu.Unlock()
			return -1, nil, ErrStreamClosed
		}
		if !m.waitLocked(ws) {
			m.mu.Unlock()
			froms := make([]int, 0, len(groups))
			for _, g := range groups {
				froms = append(froms, g...)
			}
			err := &TimeoutError{
				Tag:     tag,
				From:    froms,
				Elapsed: ws.elapsed(),
			}
			return -1, nil, err
		}
	}
}

// Recv blocks until a message from (from, tag) is available: the wait
// loop over the one singleton group, which lives on this frame.
//
//kylix:hotpath
func (m *Mailbox) Recv(from int, tag Tag) (Payload, error) {
	var ws waitState
	one := [1]int{from}
	groups := [1][]int{one[:]}
	_, p, err := m.recv(groups[:], tag, &ws)
	m.observeRecv(from, tag, p, &ws, err)
	return p, err
}

// RecvGroup blocks until a message with the tag arrives from any sender
// in any of the groups, returning the winner. The win cancels only the
// winner's own group (its co-members carried replica copies of the same
// logical message); other groups stay fully deliverable. Singleton
// groups therefore make RecvGroup a pure arrival-order, any-source
// receive with no cancellation — the reduction hot path's primitive —
// and it allocates nothing outside the error paths.
//
//kylix:hotpath
func (m *Mailbox) RecvGroup(groups [][]int, tag Tag) (int, Payload, error) {
	var ws waitState
	from, p, err := m.recv(groups, tag, &ws)
	m.observeRecv(from, tag, p, &ws, err)
	if err != nil {
		return 0, nil, err
	}
	if m.obs != nil {
		m.obs.ObserveRecvGroup(tag, ws.elapsed())
	}
	return from, p, nil
}

// Close wakes and fails all blocked receivers and drops queued messages
// and cancellation marks.
func (m *Mailbox) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.done)
	}
	m.pending, m.free, m.discard = nil, nil, nil
	m.mu.Unlock()
	m.cond.Broadcast()
}

// CloseStream tears down one stream's namespace: queued messages whose
// tag belongs to the stream are dropped, its cancellation marks
// released, and the stream marked dead so late deliveries (TCP window
// replays, faultnet-delayed frames) are dropped instead of re-leaking.
// Blocked receives on the stream wake and fail with ErrStreamClosed.
// Closing DefaultStream is a no-op: stream 0 is the single-tenant
// namespace and shares its lifetime with the mailbox itself.
//
//kylix:coldpath
func (m *Mailbox) CloseStream(id StreamID) {
	if id == DefaultStream {
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if m.deadStreams == nil {
		m.deadStreams = make(map[StreamID]struct{})
	}
	m.deadStreams[id] = struct{}{}
	for tag := range m.pending {
		if tag.Stream() == id {
			delete(m.pending, tag)
		}
	}
	for k := range m.discard {
		if k.tag.Stream() == id {
			delete(m.discard, k)
		}
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// StreamDead reports whether the stream's namespace has been closed.
func (m *Mailbox) StreamDead(id StreamID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, dead := m.deadStreams[id]
	return dead
}

// Pending reports the number of queued, undelivered messages (for tests
// and leak diagnostics).
func (m *Mailbox) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, tq := range m.pending {
		n += len(tq.q) - tq.head
	}
	return n
}

// StreamPending reports the number of queued messages belonging to one
// stream (for tests and leak diagnostics).
func (m *Mailbox) StreamPending(id StreamID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for tag, tq := range m.pending {
		if tag.Stream() == id {
			n += len(tq.q) - tq.head
		}
	}
	return n
}

// IndexedTags reports the number of tags with undelivered messages —
// the leak-regression observable: after closing a stream with
// undelivered messages, its contribution here must be zero.
func (m *Mailbox) IndexedTags() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}
