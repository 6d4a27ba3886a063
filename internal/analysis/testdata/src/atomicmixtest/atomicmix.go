// Package atomicmixtest exercises lockorder's atomic rule: every call to
// a sync/atomic function is flagged, typed atomic wrappers pass, and
// //kylix:allow suppresses a deliberate call.
package atomicmixtest

import "sync/atomic"

// counterBox hand-rolls its atomic.
type counterBox struct {
	n int64
}

// Inc is a hand-rolled atomic increment.
func (b *counterBox) Inc() {
	atomic.AddInt64(&b.n, 1) // want "call to sync/atomic.AddInt64"
}

// Read is a hand-rolled atomic load, inside a closure.
func (b *counterBox) Read() func() int64 {
	return func() int64 { return atomic.LoadInt64(&b.n) } // want "call to sync/atomic.LoadInt64"
}

// Reset documents a deliberate call through the escape hatch.
func (b *counterBox) Reset() {
	atomic.StoreInt64(&b.n, 0) //kylix:allow lockorder:atomic-func -- fixture for the escape hatch
}

// typedBox uses the typed wrappers: plain access is inexpressible, so
// nothing here is flagged.
type typedBox struct {
	n atomic.Int64
}

// Inc is the typed-wrapper increment.
func (b *typedBox) Inc() { b.n.Add(1) }

// Read is the typed-wrapper load.
func (b *typedBox) Read() int64 { return b.n.Load() }
