// Package stream is the multi-tenant control layer over a shared Kylix
// fabric: admission control (how many streams may exist), slot
// scheduling (how many collective passes may run at once, granted
// fairly round-robin across tenants), and stream-id allocation. It is
// pure coordination — no transport knowledge — behind the root package's
// Cluster.OpenStream and Stream handle.
package stream

import (
	"errors"
	"fmt"
	"sync"

	"kylix/internal/comm"
)

// Errors returned by admission and scheduling.
var (
	// ErrTooManyStreams is returned by Registry.Open at the admission
	// bound.
	ErrTooManyStreams = errors.New("stream: too many open streams")
	// ErrIDsExhausted is returned when the 16-bit stream-id space has
	// been fully consumed. IDs are never reused (a reused id could
	// collide with late frames of its previous owner still in transit),
	// so a very long-lived cluster can run out; build a new one to reset.
	ErrIDsExhausted = errors.New("stream: stream-id space exhausted")
)

// Registry allocates stream ids and enforces the admission bound.
// IDs are monotonically increasing from 1 and never reused:
// comm.DefaultStream (0) stays reserved for single-tenant traffic, and
// a recycled id could match late in-flight frames (resend-ring
// replays, faultnet delays) of its previous owner.
type Registry struct {
	mu     sync.Mutex //kylix:lock stream-registry
	next   uint32     // next candidate id; uint32 so exhaustion is detectable
	active map[comm.StreamID]struct{}
	max    int
}

// NewRegistry creates a Registry admitting at most max concurrently
// open streams (max <= 0 means unbounded).
func NewRegistry(max int) *Registry {
	return &Registry{next: 1, active: make(map[comm.StreamID]struct{}), max: max}
}

// Open admits a new stream, returning its id.
func (r *Registry) Open() (comm.StreamID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.max > 0 && len(r.active) >= r.max {
		return 0, fmt.Errorf("%w (limit %d)", ErrTooManyStreams, r.max)
	}
	if r.next > 0xFFFF {
		return 0, ErrIDsExhausted
	}
	id := comm.StreamID(r.next)
	r.next++
	r.active[id] = struct{}{}
	return id, nil
}

// Close releases an admitted stream's slot. Closing an unknown or
// already-closed id is a no-op (Close is idempotent end to end).
func (r *Registry) Close(id comm.StreamID) {
	r.mu.Lock()
	delete(r.active, id)
	r.mu.Unlock()
}

// Active reports the number of currently open streams.
func (r *Registry) Active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// Scheduler grants collective-pass slots fairly across streams. The
// fabric has a global budget of slots (concurrent passes it will carry);
// when demand exceeds it, waiters queue per stream and grants rotate
// round-robin across the streams that have waiters, so one greedy
// tenant submitting many passes cannot starve the others: each rotation
// serves one pass per waiting stream.
type Scheduler struct {
	mu   sync.Mutex //kylix:lock stream-scheduler
	free int
	// order is the round-robin rotation: streams that currently have
	// waiters, in grant order. A granted stream with more waiters moves
	// to the back.
	order   []comm.StreamID
	waiters map[comm.StreamID][]chan error
	closed  map[comm.StreamID]bool
}

// NewScheduler creates a Scheduler with the given global slot budget
// (slots <= 0 selects 1: fully serialized passes).
func NewScheduler(slots int) *Scheduler {
	if slots <= 0 {
		slots = 1
	}
	return &Scheduler{
		free:    slots,
		waiters: make(map[comm.StreamID][]chan error),
		closed:  make(map[comm.StreamID]bool),
	}
}

// grantLocked hands free slots to waiting streams in rotation order.
// Caller holds s.mu.
func (s *Scheduler) grantLocked() {
	for s.free > 0 && len(s.order) > 0 {
		id := s.order[0]
		s.order = s.order[1:]
		q := s.waiters[id]
		ch := q[0]
		if len(q) == 1 {
			delete(s.waiters, id)
		} else {
			s.waiters[id] = q[1:]
			s.order = append(s.order, id) // back of the rotation
		}
		s.free--
		ch <- nil
	}
}

// Acquire blocks until the stream is granted a pass slot. It returns
// comm.ErrStreamClosed if the stream is closed before (or while) the
// slot is granted. Fairness: a stream already waiting is served before
// a newly arriving acquire, and grants rotate across streams.
func (s *Scheduler) Acquire(id comm.StreamID) error {
	s.mu.Lock()
	if s.closed[id] {
		s.mu.Unlock()
		return comm.ErrStreamClosed
	}
	if s.free > 0 && len(s.order) == 0 {
		s.free--
		s.mu.Unlock()
		return nil
	}
	ch := make(chan error, 1)
	if _, waiting := s.waiters[id]; !waiting {
		s.order = append(s.order, id)
	}
	s.waiters[id] = append(s.waiters[id], ch)
	s.mu.Unlock()
	return <-ch
}

// Release returns a pass slot to the budget, granting it to the next
// waiting stream in rotation.
func (s *Scheduler) Release() {
	s.mu.Lock()
	s.free++
	s.grantLocked()
	s.mu.Unlock()
}

// CloseStream fails the stream's queued waiters with
// comm.ErrStreamClosed and refuses its future acquires. Slots the
// stream already holds are unaffected — the holder releases them when
// its in-flight pass drains.
func (s *Scheduler) CloseStream(id comm.StreamID) {
	s.mu.Lock()
	s.closed[id] = true
	for _, ch := range s.waiters[id] {
		ch <- comm.ErrStreamClosed
	}
	delete(s.waiters, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.grantLocked()
	s.mu.Unlock()
}

// Waiting reports the number of queued acquires across all streams
// (tests and metrics).
func (s *Scheduler) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.waiters {
		n += len(q)
	}
	return n
}
