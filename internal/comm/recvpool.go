package comm

import (
	"math"
	"sync"
	"sync/atomic"
)

const (
	// poolSlots is how many buffers a RecvPool parks at most; when all are
	// taken a release evicts the oldest.
	poolSlots = 64
	// poolFloor and poolBuffers bound the parked bytes with the rule of
	// tcpnet's send window: max(poolFloor, poolBuffers x the largest buffer
	// handed out).
	poolFloor   = 1 << 20
	poolBuffers = 4
	// poolSlack completes the fit rule: a parked buffer serves a decode of
	// size bytes when size <= capacity <= 2*size + poolSlack, so a small
	// block never pins a large buffer.
	poolSlack = 64
)

// RecvPool recycles what a receiving transport decodes value blocks into:
// the Floats and QVals headers together with their buffers. Decode hands
// them out, Release takes them back; a payload that is never released is
// ordinary garbage, so the pool gives a receiver an opportunity and no
// obligation. The zero value is ready to use, and a nil *RecvPool is the
// pool that recycles nothing (DecodePayload).
//
// The lock is a leaf: nothing is called under it.
type RecvPool struct {
	// Miss and Parked, when set — before the pool is shared — are called
	// for every decode that had to allocate, and with the parked bytes
	// after every release.
	Miss   func()
	Parked func(bytes int64)

	mu      sync.Mutex        //kylix:lock recv-pool
	slots   [poolSlots]parked // slots[:n], oldest first
	n       int
	bytes   int // capacity parked
	largest int // largest buffer handed out, in bytes
}

// parked is one recycled header and its buffer's capacity in bytes.
type parked struct {
	f    *Floats // exactly one of f and q
	q    *QVals
	size int
}

// poisonReleased is the use-after-release test hook; see PoisonReleased.
var poisonReleased atomic.Bool

// PoisonReleased is a test hook: while on, Release overwrites every
// buffer it takes back — NaN floats, 0xFF bytes, an undefined mode and a
// negative count — so a reader that kept a released payload computes
// garbage instead of a plausible stale sum.
func PoisonReleased(on bool) { poisonReleased.Store(on) }

// Release hands a received value payload back to the transport that
// decoded it; the caller must not touch p or its buffer again. It is for
// the final consumer of a payload it received: anything built by a
// sender, delivered by reference (memnet, a tcpnet self-send) or produced
// by Clone has no home and is left alone, as is every payload kind but
// Floats and QVals. The home is cleared before the buffer is parked, so
// releasing twice, or releasing a clone, does nothing.
//
//kylix:hotpath
func Release(p Payload) {
	switch v := p.(type) {
	case *Floats:
		if rp := v.home; rp != nil {
			v.home = nil
			rp.park(parked{f: v, size: 4 * cap(v.Vals)})
		}
	case *QVals:
		if rp := v.home; rp != nil {
			v.home = nil
			rp.park(parked{q: v, size: cap(v.Data)})
		}
	}
}

// floats returns a header whose Vals has length n, stale contents and
// all: the newest parked one that fits, or a fresh one.
func (rp *RecvPool) floats(n int) *Floats {
	if e := rp.take(4*n, false); e.f != nil {
		e.f.Vals, e.f.home = e.f.Vals[:n], rp
		return e.f
	}
	//kylix:allow hotpathalloc -- a miss: until released buffers of this size come round
	return &Floats{Vals: make([]float32, n), home: rp}
}

// qvals is floats for a packed block of n bytes.
func (rp *RecvPool) qvals(n int) *QVals {
	if e := rp.take(n, true); e.q != nil {
		e.q.Data, e.q.home = e.q.Data[:n], rp
		return e.q
	}
	//kylix:allow hotpathalloc -- a miss: until released buffers of this size come round
	return &QVals{Data: make([]byte, n), home: rp}
}

// take removes the newest parked entry of the wanted kind whose buffer
// fits size bytes; the zero entry is a miss.
func (rp *RecvPool) take(size int, packed bool) (e parked) {
	if rp == nil {
		return e
	}
	rp.mu.Lock()
	rp.largest = max(rp.largest, size)
	for i := rp.n - 1; i >= 0; i-- {
		if s := rp.slots[i]; (s.q != nil) == packed && size <= s.size && s.size <= 2*size+poolSlack {
			e = rp.remove(i)
			break
		}
	}
	rp.mu.Unlock()
	if e.f == nil && e.q == nil && rp.Miss != nil {
		rp.Miss()
	}
	return e
}

// remove takes entry i out, keeping the others in order. rp.mu held.
func (rp *RecvPool) remove(i int) parked {
	e := rp.slots[i]
	rp.n--
	copy(rp.slots[i:rp.n], rp.slots[i+1:])
	rp.slots[rp.n] = parked{}
	rp.bytes -= e.size
	return e
}

// park shelves a released entry as the newest, evicting the oldest ones
// to the garbage collector while the slots or the byte bound are
// exceeded. A buffer handed out is at most 2*largest+poolSlack bytes,
// under the bound, so an emptied pool always admits it.
func (rp *RecvPool) park(e parked) {
	if poisonReleased.Load() {
		e.poison()
	}
	rp.mu.Lock()
	bound := max(poolFloor, poolBuffers*rp.largest)
	for rp.n > 0 && (rp.n == poolSlots || rp.bytes+e.size > bound) {
		rp.remove(0)
	}
	rp.slots[rp.n] = e
	rp.n++
	rp.bytes += e.size
	bytes := rp.bytes
	rp.mu.Unlock()
	if rp.Parked != nil {
		rp.Parked(int64(bytes))
	}
}

// poison scribbles over a released entry (PoisonReleased).
func (e parked) poison() {
	if e.f != nil {
		vals := e.f.Vals[:cap(e.f.Vals)]
		for i := range vals {
			vals[i] = float32(math.NaN())
		}
		return
	}
	e.q.Mode, e.q.N = 0xFF, -1
	data := e.q.Data[:cap(e.q.Data)]
	for i := range data {
		data[i] = 0xFF
	}
}
