// Package lockobstest exercises lockorder's obsfree rule: observability
// hooks called while an obsfree lock class is held must be flagged,
// while the mailbox's unlock-then-notify shape and un-annotated mutexes
// stay legal.
package lockobstest

import (
	"sync"
	"time"

	"kylix/internal/obs"
)

// observer mirrors comm.Observer's method set; the rule matches the
// hook methods by name regardless of the declaring package.
type observer interface {
	ObserveSend(from, to int, wire, raw int)
	ObserveRecv(from int, bytes int, wait time.Duration, err error)
}

// box mirrors the mailbox shape: a delivery mutex that must never be
// held across observer callbacks, plus the hooks themselves.
type box struct {
	mu sync.Mutex //kylix:lock box obsfree
	tr *obs.Tracer
	o  observer
	n  int
}

// plain has an ordinary mutex: its critical sections are unconstrained.
type plain struct {
	mu sync.Mutex
	tr *obs.Tracer
}

func (b *box) underLock() {
	b.mu.Lock()
	b.n++
	b.tr.CountRound() // want "CountRound called while b.mu is held"
	b.mu.Unlock()
}

func (b *box) observerUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock() // the section stays open to the end of the function
	b.n++
	b.o.ObserveRecv(1, 64, 0, nil) // want "ObserveRecv called while b.mu is held"
}

// sendUnderLock is the transport-side half of the same contract: the
// send event fires before or after the delivery section, never inside.
func (b *box) sendUnderLock() {
	b.mu.Lock()
	b.n++
	b.o.ObserveSend(0, 1, 64, 64) // want "ObserveSend called while b.mu is held"
	b.mu.Unlock()
	b.o.ObserveSend(0, 1, 64, 64) // accepted: lock released first
}

func (b *box) afterUnlock() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	b.tr.CountRound()              // accepted: lock released first
	b.o.ObserveRecv(1, 64, 0, nil) // accepted
}

// branchRelease is the shape the mailbox uses everywhere: release
// inside the branch, then notify, then return. The sibling path keeps
// the lock and must still be checked.
func (b *box) branchRelease(fast bool) {
	b.mu.Lock()
	if fast {
		b.n++
		b.mu.Unlock()
		b.tr.CountRound() // accepted: this branch unlocked before notifying
		return
	}
	b.tr.CountArenaFlip() // want "CountArenaFlip called while b.mu is held"
	b.mu.Unlock()
}

// observeDelivery is an observer-shaped local helper: the lexical
// analysis cannot see through it, so calling it under the lock is
// flagged by name.
func (b *box) observeDelivery() {
	b.o.ObserveRecv(1, 64, 0, nil)
}

func (b *box) viaHelper() {
	b.mu.Lock()
	b.observeDelivery() // want "observeDelivery called while b.mu is held"
	b.mu.Unlock()
	b.observeDelivery() // accepted: lock released
}

// closureUnderLock: a closure literal written inside the section is
// checked against the enclosing held set, whether it runs inline or on
// its own goroutine.
func (b *box) closureUnderLock() {
	b.mu.Lock()
	notify := func() {
		b.tr.CountRound() // want "CountRound called while b.mu is held"
	}
	notify()
	go func() {
		b.o.ObserveSend(0, 1, 64, 64) // want "ObserveSend called while b.mu is held"
	}()
	b.mu.Unlock()
}

func (p *plain) unannotated() {
	p.mu.Lock()
	p.tr.CountRound() // accepted: p.mu is not //kylix:obsfree
	p.mu.Unlock()
}
