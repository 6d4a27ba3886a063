package obs

import (
	"sync"
	"time"

	"kylix/internal/comm"
)

// Span is one timed slice of protocol work on one machine: a whole
// config/reduce/gather pass (Layer 0) or a single communication layer
// within it (Layer >= 1). Instant fault events reuse the type with a
// non-empty Event and Start == End. Timestamps are nanoseconds since
// the Observatory's monotonic epoch, so spans from different nodes of
// one cluster share a timeline.
type Span struct {
	// Node is the machine the span ran on.
	Node int
	// Kind is the protocol phase (config, reduce, gather, ...).
	Kind comm.Kind
	// Layer is the communication layer, or 0 for a whole-pass span.
	Layer int
	// Start and End are nanoseconds since the Observatory epoch.
	Start, End int64
	// BytesOut and BytesIn are the wire volumes the span sent and
	// consumed (self-sends included, the Figure 5 convention).
	BytesOut, BytesIn int64
	// Peers is the communication group size of the span's layer.
	Peers int
	// Err is non-nil when the pass failed; a timed-out receive closes
	// its span with the *comm.TimeoutError attached.
	Err error
	// Event names an instant event ("drop", "kill", ...); empty for
	// phase spans.
	Event string
}

// Duration is the span's elapsed time.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer records spans for one machine into a preallocated ring. A nil
// Tracer is a valid no-op: Begin returns a zero Span and End discards
// it, so instrumented hot paths cost two nil checks when observability
// is off. With observability on, a span costs two monotonic clock
// reads, one short mutex hold and a ring write — no allocation.
type Tracer struct {
	o    *Observatory
	node int

	mu    sync.Mutex
	ring  []Span
	next  int
	total int64 // spans recorded ever; total - len(ring) overwritten
}

// Begin opens a span. The caller fills BytesIn/BytesOut/Peers/Err and
// hands the span back to End.
//
//kylix:hotpath
func (t *Tracer) Begin(kind comm.Kind, layer int) Span {
	if t == nil {
		return Span{}
	}
	return Span{Node: t.node, Kind: kind, Layer: layer, Start: t.o.now()}
}

// End stamps the span's end time and records it.
//
//kylix:hotpath
func (t *Tracer) End(sp *Span) {
	if t == nil {
		return
	}
	sp.End = t.o.now()
	t.record(*sp)
}

// Instant records a zero-duration event (fault injections, kills).
func (t *Tracer) Instant(event string) {
	if t == nil {
		return
	}
	now := t.o.now()
	t.record(Span{Node: t.node, Event: event, Start: now, End: now})
}

// CountRound bumps the cluster-wide reduce-round counter.
func (t *Tracer) CountRound() {
	if t != nil {
		t.o.rounds.Inc()
	}
}

// CountArenaFlip bumps the scratch-arena generation counter.
func (t *Tracer) CountArenaFlip() {
	if t != nil {
		t.o.arenaFlips.Inc()
	}
}

// CountReconfigureLayer records one layer outcome of an incremental
// reconfiguration: fast when the layer reused its previous unions and
// position maps, full when it had to recompute them.
func (t *Tracer) CountReconfigureLayer(fast bool) {
	if t == nil {
		return
	}
	if fast {
		t.o.reconfigFastLayer.Inc()
	} else {
		t.o.reconfigFullLayer.Inc()
	}
}

// CountDeltaPiece records a configuration piece that arrived with a
// direction spelled as a delta against the last one.
func (t *Tracer) CountDeltaPiece() {
	if t != nil {
		t.o.deltaPieces.Inc()
	}
}

// RecordError closes a synthetic span carrying an error that was not
// bracketed by Begin/End (e.g. a timed-out receive observed at the
// transport): the span covers the wait that failed.
func (t *Tracer) RecordError(kind comm.Kind, layer int, wait time.Duration, err error) {
	if t == nil {
		return
	}
	now := t.o.now()
	t.record(Span{Node: t.node, Kind: kind, Layer: layer, Start: now - int64(wait), End: now, Err: err})
}

//
//kylix:hotpath
func (t *Tracer) record(sp Span) {
	t.mu.Lock()
	if len(t.ring) == 0 {
		t.mu.Unlock()
		return
	}
	if t.total >= int64(len(t.ring)) {
		t.o.spansDropped.Inc()
	}
	t.ring[t.next] = sp
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	t.mu.Unlock()
}

// spans appends the tracer's buffered spans, oldest first.
func (t *Tracer) spans(out []Span) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(t.total)
	if n > len(t.ring) {
		n = len(t.ring)
	}
	start := (t.next - n + len(t.ring)) % len(t.ring)
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}
