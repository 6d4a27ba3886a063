// Package stream is the multi-tenant control layer over a shared Kylix
// fabric: admission control (how many streams may exist) and stream-id
// allocation, both for tenants and for the networks a program derives
// beside its own. It is pure coordination — no transport knowledge —
// behind the root package's Cluster.OpenStream, Stream handle and
// Node.Stream.
package stream

import (
	"errors"
	"fmt"
	"sync"

	"kylix/internal/comm"
)

// Errors returned by admission.
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
// replays, faultnet delays) of its previous owner. Ids claimed for
// derived networks are skipped.
type Registry struct {
	mu      sync.Mutex //kylix:lock stream-registry
	next    uint32     // next candidate id; uint32 so exhaustion is detectable
	active  map[comm.StreamID]struct{}
	claimed map[comm.StreamID]bool
	max     int
}

// NewRegistry creates a Registry admitting at most max concurrently
// open streams (max <= 0 means unbounded).
func NewRegistry(max int) *Registry {
	return &Registry{next: 1, active: make(map[comm.StreamID]struct{}),
		claimed: make(map[comm.StreamID]bool), max: max}
}

// Open admits a new stream, returning its id.
func (r *Registry) Open() (comm.StreamID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.max > 0 && len(r.active) >= r.max {
		return 0, fmt.Errorf("%w (limit %d)", ErrTooManyStreams, r.max)
	}
	for r.claimed[comm.StreamID(r.next)] { // 0x10000 wraps to 0, never claimed
		r.next++
	}
	if r.next > 0xFFFF {
		return 0, ErrIDsExhausted
	}
	id := comm.StreamID(r.next)
	r.next++
	r.active[id] = struct{}{}
	return id, nil
}

// Claim reserves id for a network derived beside the cluster's own
// namespace, so Open never issues it. Claiming an id again is a no-op —
// every rank claims it, on every pass that derives it — but an id Open
// has issued is refused, open or closed: its tags are a tenant's, or a
// namespace whose late frames the mailboxes now drop.
func (r *Registry) Claim(id comm.StreamID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.claimed[id] && uint32(id) < r.next {
		return fmt.Errorf("stream: id %d was issued to a tenant stream", id)
	}
	r.claimed[id] = true
	return nil
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
