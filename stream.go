package kylix

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kylix/internal/comm"
	"kylix/internal/obs"
	"kylix/internal/stream"
)

// ErrStreamClosed is returned by operations on a closed Stream (and by
// receives inside a pass racing a concurrent close). It aliases
// comm.ErrStreamClosed so errors.Is works across layers.
var ErrStreamClosed = comm.ErrStreamClosed

// ErrTooManyStreams is returned by OpenStream at the WithMaxStreams
// admission bound.
var ErrTooManyStreams = stream.ErrTooManyStreams

// StreamBusyError reports a pass rejected at the stream's in-flight
// bound (WithStreamInflight) — per-tenant backpressure. The caller
// should shed load or retry later; nothing was submitted.
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
	// scratch is the stream's own machine memory (see rankScratch).
	scratch atomic.Pointer[rankScratch]
	// mu serializes the stream's passes; Close takes it to wait for the
	// in-flight pass to drain before purging mailbox state.
	mu sync.Mutex //kylix:lock stream-pass
	// inflight counts queued-plus-running Run calls for the admission
	// bound.
	inflight    atomic.Int64
	maxInflight int
	closed      atomic.Bool
	counters    *obs.StreamCounters
}

// OpenStream admits a new tenant stream. Options may override the
// cluster's data-plane settings for this stream — WithWidth,
// WithReducer, WithStrict, WithQuantization, WithStreamInflight — while
// transport-level options are fixed at cluster construction and ignored
// here. Fails with ErrTooManyStreams at the WithMaxStreams
// bound and ErrClusterClosed after Close.
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
	s := &Stream{c: c, id: id, cfg: cfg, maxInflight: cfg.streamInflight}
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
// stream are serialized; across streams they run concurrently up to
// the cluster's WithStreamSlots budget, granted round-robin so no
// tenant starves. A pass submitted past the stream's in-flight bound
// is rejected immediately with a *StreamBusyError. As with Cluster.Run,
// a Reduction is usable only inside the Run that made it.
func (s *Stream) Run(fn func(*Node) error) error {
	if s.closed.Load() {
		return ErrStreamClosed
	}
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.maxInflight > 0 && n > int64(s.maxInflight) {
		s.c.smet.AdmissionRejected.Inc()
		s.counters.Rejected.Inc()
		return &StreamBusyError{Stream: uint16(s.id), Inflight: s.maxInflight}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrStreamClosed
	}
	// Acquire the fabric slot while holding mu: each stream presents at
	// most one acquire at a time, which is exactly the shape the
	// scheduler's rotation serves fairly.
	start := time.Now()
	if err := s.c.sched.Acquire(s.id); err != nil {
		return err
	}
	s.c.smet.SchedWaitNs.Observe(time.Since(start).Nanoseconds())
	defer s.c.sched.Release()
	err := s.c.runPass(s.cfg, &s.base, &s.scratch, fn)
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
	// Fail waiters queued on the scheduler first — they hold mu while
	// blocked in Acquire, so this is what lets Close take mu below.
	s.c.sched.CloseStream(s.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scratch.Store(nil)
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
