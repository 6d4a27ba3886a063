package comm

import (
	"sync"
	"time"
)

// mailKey matches an incoming message to a waiting receive.
type mailKey struct {
	from int
	tag  Tag
}

// maxFreeQueues bounds the recycled queue-slice pool. Steady-state
// protocol traffic keeps at most a handful of (sender, tag) queues live
// at once; the bound only matters after a pathological burst.
const maxFreeQueues = 128

// Mailbox is the matched-receive buffer shared by all transports: an
// unbounded per-(sender, tag) queue with blocking consumers. Sends into
// a Mailbox never block, which realizes the paper's requirement that
// nodes communicate opportunistically and never stall on slow peers.
//
// The steady-state receive path is allocation-free: emptied queue
// slices are recycled through a small free list, and the timeout
// machinery is one lazily started watchdog goroutine per Mailbox (not
// per blocked receive), so a warm reduction round allocates nothing
// here.
type Mailbox struct {
	//kylix:lock mailbox
	mu     sync.Mutex //kylix:obsfree — observers fire after delivery state is settled and released
	cond   *sync.Cond
	queues map[mailKey][]Payload
	free   [][]Payload // recycled backing slices for emptied queues
	// byTag indexes the senders that have at least one pending message
	// under each tag, so any-source receives find an available message
	// in O(1) instead of probing every sender's queue key (quadratic in
	// the group degree) or walking the whole pending map.
	byTag    map[Tag][]int
	freeTags [][]int // recycled backing slices for emptied byTag lists
	closed   bool
	timeout  time.Duration
	// discard marks (from, tag) pairs whose future deliveries should be
	// dropped: the losers of a replica race (§V-B cancellation).
	discard map[mailKey]struct{}
	// deadStreams marks closed stream namespaces. Deliveries into a
	// dead stream are dropped (late TCP window replays and
	// faultnet-delayed frames must not re-leak index entries), and
	// blocked receives on it fail with ErrStreamClosed. Lazily
	// allocated: single-tenant mailboxes never pay for the map.
	deadStreams map[StreamID]struct{}
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
		queues:  make(map[mailKey][]Payload),
		byTag:   make(map[Tag][]int),
		discard: make(map[mailKey]struct{}),
		timeout: timeout,
		done:    make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Deliver enqueues a message. It is called by transport receive paths
// and never blocks. Messages for cancelled (from, tag) slots are dropped.
//
//kylix:hotpath
func (m *Mailbox) Deliver(from int, tag Tag, p Payload) {
	k := mailKey{from, tag}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if _, dead := m.discard[k]; dead {
		m.mu.Unlock()
		return
	}
	if m.streamDeadLocked(tag) {
		m.mu.Unlock()
		return
	}
	q, ok := m.queues[k]
	if !ok && len(m.free) > 0 {
		q = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	}
	if len(q) == 0 {
		m.indexTagLocked(k) // queue transitions empty -> pending
	}
	//kylix:allow hotpathalloc:append -- q is a recycled queue from the free list; growth is amortized zero
	m.queues[k] = append(q, p)
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

// indexTagLocked records that k.from now has pending messages under
// k.tag. Caller holds m.mu.
func (m *Mailbox) indexTagLocked(k mailKey) {
	o, ok := m.byTag[k.tag]
	if !ok && len(m.freeTags) > 0 {
		o = m.freeTags[len(m.freeTags)-1]
		m.freeTags = m.freeTags[:len(m.freeTags)-1]
	}
	//kylix:allow hotpathalloc:append -- o is a recycled sender list from freeTags; growth is amortized zero
	m.byTag[k.tag] = append(o, k.from)
}

// unindexTagLocked removes k.from from k.tag's pending-sender list
// (the sender's queue just emptied). Order is not preserved — receives
// stage and fold canonically, so which pending message they see first
// does not matter. Caller holds m.mu.
func (m *Mailbox) unindexTagLocked(k mailKey) {
	o := m.byTag[k.tag]
	for i, f := range o {
		if f == k.from {
			o[i] = o[len(o)-1]
			o = o[:len(o)-1]
			break
		}
	}
	if len(o) == 0 {
		delete(m.byTag, k.tag)
		if o != nil && len(m.freeTags) < maxFreeQueues {
			//kylix:allow hotpathalloc:append -- freeTags is capped at maxFreeQueues; steady state never grows
			m.freeTags = append(m.freeTags, o[:0])
		}
	} else {
		m.byTag[k.tag] = o
	}
}

// popLocked dequeues the head of (from, tag), recycling the backing
// slice when the queue empties. Caller holds m.mu.
func (m *Mailbox) popLocked(k mailKey) (Payload, bool) {
	q := m.queues[k]
	if len(q) == 0 {
		return nil, false
	}
	p := q[0]
	q[0] = nil // release the payload reference held by the slice
	if len(q) == 1 {
		delete(m.queues, k)
		if len(m.free) < maxFreeQueues {
			//kylix:allow hotpathalloc:append -- free is capped at maxFreeQueues; steady state never grows
			m.free = append(m.free, q[:0])
		}
		m.unindexTagLocked(k)
	} else {
		m.queues[k] = q[1:]
	}
	return p, true
}

// cancelLocked marks every listed sender except the winner for discard
// under the tag and drops their queued messages. Caller holds m.mu.
func (m *Mailbox) cancelLocked(froms []int, winner int, tag Tag) {
	for _, other := range froms {
		if other != winner {
			ko := mailKey{other, tag}
			m.discard[ko] = struct{}{}
			if _, pending := m.queues[ko]; pending {
				delete(m.queues, ko)
				m.unindexTagLocked(ko)
			}
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
	m.cond.Wait()
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

// Recv blocks until a message from (from, tag) is available.
//
//kylix:hotpath
func (m *Mailbox) Recv(from int, tag Tag) (Payload, error) {
	var ws waitState
	m.mu.Lock()
	for {
		if m.closed {
			m.mu.Unlock()
			m.observeRecv(from, tag, nil, &ws, ErrClosed)
			return nil, ErrClosed
		}
		if p, ok := m.popLocked(mailKey{from, tag}); ok {
			m.mu.Unlock()
			m.observeRecv(from, tag, p, &ws, nil)
			return p, nil
		}
		if m.streamDeadLocked(tag) {
			m.mu.Unlock()
			m.observeRecv(from, tag, nil, &ws, ErrStreamClosed)
			return nil, ErrStreamClosed
		}
		if !m.waitLocked(&ws) {
			m.mu.Unlock()
			err := &TimeoutError{
				Tag:     tag,
				From:    []int{from},
				Elapsed: ws.elapsed(),
			}
			m.observeRecv(from, tag, nil, &ws, err)
			return nil, err
		}
	}
}

// RecvAny blocks until a message with the tag arrives from any of the
// listed senders; the first available one wins. The losing senders'
// slots for this tag are marked for discard so late duplicates do not
// accumulate. Returns the winning sender.
//
//kylix:hotpath
func (m *Mailbox) RecvAny(froms []int, tag Tag) (int, Payload, error) {
	var ws waitState
	m.mu.Lock()
	for {
		if m.closed {
			m.mu.Unlock()
			m.observeRecv(-1, tag, nil, &ws, ErrClosed)
			return 0, nil, ErrClosed
		}
		for _, from := range froms {
			if p, ok := m.popLocked(mailKey{from, tag}); ok {
				m.cancelLocked(froms, from, tag)
				m.mu.Unlock()
				m.observeRecv(from, tag, p, &ws, nil)
				return from, p, nil
			}
		}
		if m.streamDeadLocked(tag) {
			m.mu.Unlock()
			m.observeRecv(-1, tag, nil, &ws, ErrStreamClosed)
			return 0, nil, ErrStreamClosed
		}
		if !m.waitLocked(&ws) {
			m.mu.Unlock()
			err := &TimeoutError{
				Tag:     tag,
				From:    append([]int(nil), froms...),
				Elapsed: ws.elapsed(),
			}
			m.observeRecv(-1, tag, nil, &ws, err)
			return 0, nil, err
		}
	}
}

// popGroupLocked dequeues one available message from any listed sender,
// reporting the winner's group index. It walks the tag's pending-sender
// index — what has actually arrived — so the cost per receive is the
// membership check of one sender, not a queue probe per possible
// sender (which would be quadratic in the group degree over a layer).
// Caller holds m.mu.
func (m *Mailbox) popGroupLocked(groups [][]int, tag Tag) (gi, from int, p Payload, ok bool) {
	for _, from := range m.byTag[tag] {
		for gi, g := range groups {
			for _, f := range g {
				if f != from {
					continue
				}
				if p, ok := m.popLocked(mailKey{from, tag}); ok {
					return gi, from, p, true
				}
				return 0, 0, nil, false // index out of sync; cannot happen
			}
		}
	}
	return 0, 0, nil, false
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
	m.mu.Lock()
	for {
		if m.closed {
			m.mu.Unlock()
			m.observeRecv(-1, tag, nil, &ws, ErrClosed)
			return 0, nil, ErrClosed
		}
		if gi, from, p, ok := m.popGroupLocked(groups, tag); ok {
			if len(groups[gi]) > 1 {
				m.cancelLocked(groups[gi], from, tag)
			}
			m.mu.Unlock()
			m.observeRecv(from, tag, p, &ws, nil)
			if m.obs != nil {
				m.obs.ObserveRecvGroup(tag, ws.elapsed())
			}
			return from, p, nil
		}
		if m.streamDeadLocked(tag) {
			m.mu.Unlock()
			m.observeRecv(-1, tag, nil, &ws, ErrStreamClosed)
			return 0, nil, ErrStreamClosed
		}
		if !m.waitLocked(&ws) {
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
			m.observeRecv(-1, tag, nil, &ws, err)
			return 0, nil, err
		}
	}
}

// Close wakes and fails all blocked receivers and drops queued messages.
func (m *Mailbox) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.done)
	}
	m.queues = nil
	m.mu.Unlock()
	m.cond.Broadcast()
}

// CloseStream tears down one stream's namespace: queued messages whose
// tag belongs to the stream are dropped, their pending-sender index
// entries purged (the index-leak fix — tags indexed but never drained
// used to leave stale byTag entries forever), discard marks released,
// and the stream marked dead so late deliveries (TCP window
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
	for k := range m.queues {
		if k.tag.Stream() == id {
			delete(m.queues, k)
			m.unindexTagLocked(k)
		}
	}
	// Sweep byTag directly too: the queue walk above removes entries
	// backed by live queues, but an index entry whose queue vanished
	// through a bug would otherwise survive the close. The invariant
	// len(q)>0 ⇒ indexed makes this second loop a no-op in a healthy
	// mailbox; it is the belt to the braces.
	for tag := range m.byTag {
		if tag.Stream() == id {
			delete(m.byTag, tag)
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
	for _, q := range m.queues {
		n += len(q)
	}
	return n
}

// StreamPending reports the number of queued messages belonging to one
// stream (for tests and leak diagnostics).
func (m *Mailbox) StreamPending(id StreamID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for k, q := range m.queues {
		if k.tag.Stream() == id {
			n += len(q)
		}
	}
	return n
}

// IndexedTags reports the number of tags with live pending-sender index
// entries — the leak-regression observable: after closing a stream with
// undelivered messages, its contribution here must be zero.
func (m *Mailbox) IndexedTags() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byTag)
}

// ResetDiscards clears race-cancellation state. Callers reusing tags
// across independent rounds (e.g. a new allreduce with the same seq)
// must reset between rounds; the protocol instead never reuses tags, so
// this is primarily for tests.
func (m *Mailbox) ResetDiscards() {
	m.mu.Lock()
	m.discard = make(map[mailKey]struct{})
	m.mu.Unlock()
}
