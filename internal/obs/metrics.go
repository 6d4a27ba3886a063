// Package obs is the accounting plane and the runtime observability
// layer built on it: the traffic store every transport send is counted
// in (Traffic, fed through the comm.Observer sinks this package
// builds, read by traffic reports, netsim and /metrics alike), per-node
// span tracing of the protocol's config/reduce/gather passes, a
// low-overhead metrics registry (counters, gauges, log2 histograms),
// and exporters — a Chrome trace_event JSON writer and a human-readable
// timeline — that make a live run inspectable the way the paper's
// Figures 5-9 inspect a finished one. The hot-path contract is strict:
// with observability enabled, the warm Reduce must stay at 0 allocs/op
// (gated by scripts/bench.sh), so every recording primitive here is
// preallocated and lock-light.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe
// for concurrent use and never allocate.
type Counter struct {
	v atomic.Int64
	// read, when set, makes the counter a view of state kept elsewhere
	// (Registry.CounterFunc): Value reports read() and nothing adds.
	read func() int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug but not checked on the
// hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c.read != nil {
		return c.read()
	}
	return c.v.Load()
}

// Gauge is a last-value (or high-watermark, via SetMax) metric.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger — a lock-free
// high-watermark. The fast path is a single load when the watermark
// already covers v.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is one bucket per power of two: bucket i counts samples
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram accumulates a distribution in log2 buckets: cheap enough
// for per-message observation (one atomic add, no locks) yet precise
// enough for latency quantiles within a factor of two.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     Gauge
}

// Observe records one sample (negative samples clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.max.SetMax(v)
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest sample seen.
func (h *Histogram) Max() int64 { return h.max.Value() }

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// top of the log2 bucket the quantile falls in.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	want := int64(q * float64(total))
	if want >= total {
		want = total - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > want {
			if i == 0 {
				return 0
			}
			return int64(1) << uint(i) // upper bound of bucket i
		}
	}
	return h.max.Value()
}

// HistogramSnapshot is the exported summary of a Histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Mean  int64 `json:"mean"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(), Sum: h.Sum(), Max: h.Max(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / s.Count
	}
	return s
}

// Registry is a named collection of metrics. Registration (the
// get-or-create lookups) takes a mutex and may allocate; it is meant
// for setup time. The returned metric pointers are then used lock-free
// on hot paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Nil-safe: a nil registry returns a live but unexported counter, so
// instrumented code never branches on "is observability on".
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// export time — a view of state kept elsewhere, so the two cannot
// disagree. fn runs under the registry lock and must not register
// metrics. A name already registered keeps its first definition.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters[name] == nil {
		r.counters[name] = &Counter{read: fn}
	}
}

// Gauge returns the named gauge, creating it on first use. Nil-safe
// like Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Nil-safe like Counter.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every registered metric, shaped
// for JSON export (the expvar-style /metrics endpoint).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (map keys are emitted
// in sorted order by encoding/json, so output is diffable).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// String renders the snapshot as a compact sorted text table for logs.
func (r *Registry) String() string {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		if v, ok := s.Counters[n]; ok {
			out += fmt.Sprintf("%-32s %d\n", n, v)
		} else if v, ok := s.Gauges[n]; ok {
			out += fmt.Sprintf("%-32s %d\n", n, v)
		} else if h, ok := s.Histograms[n]; ok {
			out += fmt.Sprintf("%-32s count=%d mean=%d p50=%d p99=%d max=%d\n", n, h.Count, h.Mean, h.P50, h.P99, h.Max)
		}
	}
	return out
}

// TransportMetrics bundles the transport-level counters the TCP layer
// maintains: the reconnect machinery, the ack-trimmed send windows and
// the receiver-side sequence dedup. Constructed by NewTransportMetrics so
// transports can increment unconditionally — a nil registry yields
// live, unregistered metrics with identical cost.
type TransportMetrics struct {
	// ReconnectAttempts counts dials attempted while (re)building a
	// peer stream (first-dial retries included).
	ReconnectAttempts *Counter
	// Reconnects counts streams successfully (re)established, each of
	// which replayed its window's un-acked frames.
	Reconnects *Counter
	// StreamsLost counts peers declared dead after the reconnect budget
	// was exhausted.
	StreamsLost *Counter
	// DedupHits counts replayed frames the receiver dropped because
	// their sequence number was already delivered.
	DedupHits *Counter
	// WindowBytesHigh is the high-watermark of un-acked bytes (headers
	// included) across all peer send windows.
	WindowBytesHigh *Gauge
	// AcksBare counts header-only frames: acks that found no frame of
	// the reverse stream to ride on, and the stall probes that ask for one.
	AcksBare *Counter
	// SendBlocked counts Sends that waited for an ack at a full window.
	SendBlocked *Counter
	// ReconnectRetries is the per-outage distribution of dial attempts:
	// one sample each time a stream is re-established or given up on,
	// recording how many dials the outage cost. An endless-reconnect
	// loop against a departed peer shows up here as a fat tail.
	ReconnectRetries *Histogram
	// FramesSent counts data frames first handed to the wire by the
	// batching writer (reconnect replays and bare acks not included).
	FramesSent *Counter
	// FramesBatched counts frames that left in a coalesced batch with at
	// least one other frame — the wins of the writev gather path.
	FramesBatched *Counter
	// WritevCalls counts gather-write syscalls issued by the batching
	// writer; FramesSent / WritevCalls is the measured frames-per-syscall
	// ratio (1.0 means no coalescing happened).
	WritevCalls *Counter
	// RecvPoolMisses counts received value blocks decoded into a fresh
	// allocation because no released buffer fit. On a warm fixed
	// configuration it stops growing; what it keeps growing by is what
	// the receive side still hands the collector.
	RecvPoolMisses *Counter
	// RecvPoolBytesHigh is the high-watermark of released buffer bytes
	// parked in one node's receive pool.
	RecvPoolBytesHigh *Gauge
}

// NewTransportMetrics registers the transport metric set in r (nil r
// gives unregistered metrics).
func NewTransportMetrics(r *Registry) *TransportMetrics {
	return &TransportMetrics{
		ReconnectAttempts: r.Counter("tcp_reconnect_attempts"),
		Reconnects:        r.Counter("tcp_reconnects"),
		StreamsLost:       r.Counter("tcp_streams_lost"),
		DedupHits:         r.Counter("tcp_dedup_hits"),
		WindowBytesHigh:   r.Gauge("tcp_window_bytes_high"),
		AcksBare:          r.Counter("tcp_acks_bare"),
		SendBlocked:       r.Counter("tcp_send_blocked"),
		ReconnectRetries:  r.Histogram("tcp_reconnect_retries"),
		FramesSent:        r.Counter("tcp_frames_sent"),
		FramesBatched:     r.Counter("tcp_frames_batched"),
		WritevCalls:       r.Counter("tcp_writev_calls"),
		RecvPoolMisses:    r.Counter("tcp_recv_pool_misses"),
		RecvPoolBytesHigh: r.Gauge("tcp_recv_pool_bytes_high"),
	}
}

// MembershipMetrics bundles the elastic control plane's numbers:
// current epoch, transition counts, drain latencies and the heartbeat
// round-trip distribution. Constructed by NewMembershipMetrics so the
// membership agents can record unconditionally — a nil registry yields
// live, unregistered metrics.
type MembershipMetrics struct {
	// EpochCurrent is the highest committed epoch number any agent has
	// adopted.
	EpochCurrent *Gauge
	// EpochTransitions counts epoch adoptions across all agents (each
	// agent's cutover to a newer committed record increments it once).
	EpochTransitions *Counter
	// DrainNs is the distribution of drain (bounded quiesce) durations
	// in nanoseconds, one sample per adoption.
	DrainNs *Histogram
	// HeartbeatRTT is the distribution of control-plane heartbeat
	// round-trip times in nanoseconds, measured via clock echoes.
	HeartbeatRTT *Histogram
	// StaleEpochRejected counts control messages rejected because they
	// carried an epoch older than the receiver's committed one.
	StaleEpochRejected *Counter
	// Suspected counts peer-suspicion events (a member's heartbeats
	// went quiet past the suspicion window).
	Suspected *Counter
}

// NewMembershipMetrics registers the membership metric set in r (nil r
// gives unregistered metrics).
func NewMembershipMetrics(r *Registry) *MembershipMetrics {
	return &MembershipMetrics{
		EpochCurrent:       r.Gauge("epoch_current"),
		EpochTransitions:   r.Counter("epoch_transitions"),
		DrainNs:            r.Histogram("drain_ns"),
		HeartbeatRTT:       r.Histogram("hb_rtt_ns"),
		StaleEpochRejected: r.Counter("epoch_stale_rejected"),
		Suspected:          r.Counter("membership_suspected"),
	}
}

// StreamMetrics bundles the multi-tenant stream layer's aggregate
// numbers — opens/closes and admission rejections — plus
// a constructor for per-tenant labelled counters. Constructed by
// NewStreamMetrics so the stream layer records unconditionally: a nil
// registry yields live, unregistered metrics. Registered metrics show
// up on the HTTP /metrics endpoint automatically, the per-tenant ones
// under stream/<id>/ names.
type StreamMetrics struct {
	// StreamsOpened counts streams admitted over the cluster's lifetime.
	StreamsOpened *Counter
	// StreamsClosed counts streams closed.
	StreamsClosed *Counter
	// StreamsActive is the number of currently open streams.
	StreamsActive *Gauge
	// AdmissionRejected counts passes refused at the per-stream
	// in-flight bound (backpressure working as designed).
	AdmissionRejected *Counter
	reg               *Registry
}

// NewStreamMetrics registers the stream metric set in r (nil r gives
// unregistered metrics).
func NewStreamMetrics(r *Registry) *StreamMetrics {
	return &StreamMetrics{
		StreamsOpened:     r.Counter("streams_opened"),
		StreamsClosed:     r.Counter("streams_closed"),
		StreamsActive:     r.Gauge("streams_active"),
		AdmissionRejected: r.Counter("stream_admission_rejected"),
		reg:               r,
	}
}

// StreamCounters is one tenant's labelled counter set.
type StreamCounters struct {
	// Passes counts the stream's completed collective passes.
	Passes *Counter
	// Errors counts its failed passes.
	Errors *Counter
	// Rejected counts its admission (in-flight bound) rejections.
	Rejected *Counter
}

// PerStream returns the per-tenant counters labelled stream/<id>/...
// Registration allocates (Sprintf plus map inserts); call it once at
// stream open, not per pass.
func (m *StreamMetrics) PerStream(id uint16) *StreamCounters {
	prefix := fmt.Sprintf("stream/%d/", id)
	return &StreamCounters{
		Passes:   m.reg.Counter(prefix + "passes"),
		Errors:   m.reg.Counter(prefix + "errors"),
		Rejected: m.reg.Counter(prefix + "rejected"),
	}
}
