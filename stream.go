package kylix

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kylix/internal/comm"
	"kylix/internal/obs"
	"kylix/internal/stream"
)

// ErrStreamClosed is returned by operations on a closed Stream (and by
// receives inside a pass racing a concurrent close). It aliases
// comm.ErrStreamClosed so errors.Is works across layers.
var ErrStreamClosed = comm.ErrStreamClosed

// The tenant bounds. OpenStream fails with ErrTooManyStreams while
// maxOpenStreams streams are open, and a pass submitted while
// streamInflight passes of its stream are queued or running fails at
// once with a *StreamBusyError. A stream's passes serialize on its
// mutex, so the open-stream bound is also the bound on tenant passes
// running at once.
const (
	maxOpenStreams = 64
	streamInflight = 4
)

// ErrTooManyStreams is returned by OpenStream at the open-stream
// admission bound (64 streams).
var ErrTooManyStreams = stream.ErrTooManyStreams

// StreamBusyError reports a pass rejected at the stream's in-flight
// bound (4 queued or running passes) — per-tenant backpressure. The
// caller should shed load or retry later; nothing was submitted.
type StreamBusyError struct {
	// Stream is the rejecting stream's id.
	Stream uint16
	// Inflight is the bound that was hit.
	Inflight int
}

// Error implements error.
func (e *StreamBusyError) Error() string {
	return fmt.Sprintf("kylix: stream %d at its in-flight bound (%d passes)", e.Stream, e.Inflight)
}

// Stream is one tenant's handle on a shared cluster: an isolated tag
// namespace over the same machines and transports, with its own
// round accounting, per-stream options (width, reducer, strictness),
// admission bound and metrics. Many streams run concurrent reductions
// over one fabric with results bit-identical to isolated runs.
//
// A Stream's collective passes are serialized with respect to each
// other (tag rounds must not interleave within one namespace);
// concurrency comes from running many streams. Run and Close are safe
// for concurrent use.
type Stream struct {
	c   *Cluster
	id  comm.StreamID
	cfg config
	// base is the stream's private tag-round cursor; each stream id is
	// a whole fresh tag space, so streams never coordinate on rounds.
	base atomic.Uint32
	// nodes is what the stream keeps for its next Run (see keptNodes).
	nodes atomic.Pointer[keptNodes]
	// mu serializes the stream's passes; Close takes it to wait for the
	// in-flight pass to drain before purging mailbox state.
	mu sync.Mutex //kylix:lock stream-pass
	// inflight counts queued-plus-running Run calls for the in-flight
	// bound.
	inflight atomic.Int64
	closed   atomic.Bool
	counters *obs.StreamCounters
}

// OpenStream admits a new tenant stream. Options may override the
// cluster's data-plane settings for this stream — WithWidth,
// WithReducer, WithStrict, WithQuantization — while transport-level
// options are fixed at cluster construction and ignored here. Fails
// with ErrTooManyStreams at the open-stream bound and ErrClusterClosed
// after Close.
func (c *Cluster) OpenStream(opts ...Option) (*Stream, error) {
	if c.closed.Load() {
		return nil, ErrClusterClosed
	}
	id, err := c.streams.Open()
	if err != nil {
		return nil, err
	}
	cfg := c.cfg
	for _, o := range opts {
		o(&cfg)
	}
	cfg.stream = id
	s := &Stream{c: c, id: id, cfg: cfg}
	s.counters = c.smet.PerStream(uint16(id))
	c.smet.StreamsOpened.Inc()
	c.smet.StreamsActive.Set(int64(c.streams.Active()))
	return s, nil
}

// ID returns the stream's id (unique for the cluster's lifetime, never
// reused).
func (s *Stream) ID() uint16 { return uint16(s.id) }

// Run executes one collective pass on every live machine under this
// stream's tag namespace — the per-tenant Cluster.Run. Passes of one
// stream are serialized; across streams they run concurrently. A pass
// submitted past the stream's in-flight bound is rejected immediately
// with a *StreamBusyError. As with Cluster.Run, a Reduction is usable
// only inside the Run that made it. The nodes fn receives are the
// tenant's own: their Stream method refuses, as a tenant that needs a
// second network opens a second Stream.
func (s *Stream) Run(fn func(*Node) error) error {
	if s.closed.Load() {
		return ErrStreamClosed
	}
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if n > streamInflight {
		s.c.smet.AdmissionRejected.Inc()
		s.counters.Rejected.Inc()
		return &StreamBusyError{Stream: uint16(s.id), Inflight: streamInflight}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrStreamClosed
	}
	err := s.c.runPass(s.cfg, &s.base, &s.nodes, fn)
	if err != nil {
		s.counters.Errors.Inc()
	} else {
		s.counters.Passes.Inc()
	}
	return err
}

// Close tears the stream down: queued passes fail with ErrStreamClosed,
// the in-flight pass (if any) drains, and every machine's mailbox
// purges the stream's queued messages from its pending index — late
// deliveries (resend replays, chaos-delayed frames) are dropped
// from then on. Close is idempotent and safe concurrent with Run. The
// stream's admission slot and machine memory are released, but its id
// is never reused.
func (s *Stream) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Passes queued on mu see the closed flag once they get it.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodes.Store(nil)
	s.c.closeStreamTransports(s.id)
	s.c.streams.Close(s.id)
	s.c.smet.StreamsClosed.Inc()
	s.c.smet.StreamsActive.Set(int64(s.c.streams.Active()))
	return nil
}

// Closed reports whether the stream has been closed.
func (s *Stream) Closed() bool { return s.closed.Load() }

// ActiveStreams reports the number of currently open tenant streams.
func (c *Cluster) ActiveStreams() int { return c.streams.Active() }
