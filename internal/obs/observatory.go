package obs

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"kylix/internal/comm"
)

// DefaultSpanCapacity is the per-node span ring size: enough for
// thousands of collective rounds before the ring wraps (overwrites are
// counted in the spans_dropped metric, never allocated around).
const DefaultSpanCapacity = 4096

// Observatory is one cluster's observability state: a per-node span
// Tracer, the traffic store, the shared metrics Registry, and the
// exporters. All methods are nil-safe so callers thread a possibly-nil
// *Observatory without branching.
type Observatory struct {
	epoch   time.Time
	reg     *Registry
	tracers []*Tracer
	trans   *TransportMetrics
	traffic *Traffic

	rounds       *Counter
	arenaFlips   *Counter
	spansDropped *Counter
	recvMsgs     *Counter
	recvBytes    *Counter
	recvTimeouts *Counter
	recvWait     *Histogram
	groupWait    *Histogram
	faultCounts  map[string]*Counter

	// Incremental-reconfigure layer outcomes (fast = the layer reused
	// its previous unions and maps; full = it recomputed them).
	reconfigFastLayer *Counter
	reconfigFullLayer *Counter
	deltaPieces       *Counter
}

// FaultEventNames are the faultnet event labels the Observatory
// pre-registers counters for.
var FaultEventNames = []string{"drop", "duplicate", "delay", "reorder", "partition", "kill"}

// New creates an Observatory for an m-machine cluster with the given
// span ring capacity per node (<= 0 uses DefaultSpanCapacity).
func New(m, spanCap int) *Observatory {
	if spanCap <= 0 {
		spanCap = DefaultSpanCapacity
	}
	reg := NewRegistry()
	o := &Observatory{
		epoch:        time.Now(),
		reg:          reg,
		tracers:      make([]*Tracer, m),
		rounds:       reg.Counter("reduce_rounds"),
		arenaFlips:   reg.Counter("arena_flips"),
		spansDropped: reg.Counter("spans_dropped"),
		recvMsgs:     reg.Counter("recv_msgs"),
		recvBytes:    reg.Counter("recv_bytes"),
		recvTimeouts: reg.Counter("recv_timeouts"),
		recvWait:     reg.Histogram("recv_wait_ns"),
		groupWait:    reg.Histogram("recv_group_wait_ns"),
		faultCounts:  make(map[string]*Counter, len(FaultEventNames)),
		traffic:      NewTraffic(m),
	}
	o.deriveByteCounters()
	o.reconfigFastLayer = reg.Counter("reconfigure_fast_layers")
	o.reconfigFullLayer = reg.Counter("reconfigure_full_layers")
	o.deltaPieces = reg.Counter("config_delta_pieces")
	o.trans = NewTransportMetrics(reg)
	for _, ev := range FaultEventNames {
		o.faultCounts[ev] = reg.Counter("fault_" + ev)
	}
	for i := range o.tracers {
		o.tracers[i] = &Tracer{o: o, node: i, ring: make([]Span, spanCap)}
	}
	return o
}

// now is nanoseconds since the epoch (monotonic).
func (o *Observatory) now() int64 { return int64(time.Since(o.epoch)) }

// Machines returns the cluster size the Observatory was built for.
func (o *Observatory) Machines() int {
	if o == nil {
		return 0
	}
	return len(o.tracers)
}

// Node returns rank's span tracer (nil on a nil Observatory or an
// out-of-range rank, which instruments to a no-op).
func (o *Observatory) Node(rank int) *Tracer {
	if o == nil || rank < 0 || rank >= len(o.tracers) {
		return nil
	}
	return o.tracers[rank]
}

// Registry returns the metrics registry (nil on a nil Observatory).
func (o *Observatory) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Transport returns the transport metric set, shared by every node's
// TCP stream machinery.
func (o *Observatory) Transport() *TransportMetrics {
	if o == nil {
		return nil
	}
	return o.trans
}

// Traffic returns the traffic store the Observatory's sinks feed (nil
// on a nil Observatory).
func (o *Observatory) Traffic() *Traffic {
	if o == nil {
		return nil
	}
	return o.traffic
}

// deriveByteCounters registers the byte counters of /metrics as views
// of the traffic store, so they cannot disagree with a traffic report:
// config_bytes_* over the configuration phases (wire bytes in the
// compressed encoding vs. what the raw 8-byte-per-key format would have
// cost), values_bytes_* over reduce and gather (wire bytes in whatever
// encoding quantization selected vs. raw 4-byte float32; equal with
// quantization off), and one bytes_<kind>_L<n> per (kind, layer) cell,
// listed from the cell's first message on.
func (o *Observatory) deriveByteCounters() {
	t, reg := o.traffic, o.reg
	phases := func(a, b comm.Kind) func(comm.Kind, int) bool {
		return func(k comm.Kind, _ int) bool { return k == a || k == b }
	}
	for name, match := range map[string]func(comm.Kind, int) bool{
		"config": phases(comm.KindConfig, comm.KindConfigReduce),
		"values": phases(comm.KindReduce, comm.KindGather),
	} {
		reg.CounterFunc(name+"_bytes_encoded", func() int64 { return t.sent(match).bytes })
		reg.CounterFunc(name+"_bytes_raw", func() int64 { return t.sent(match).raw })
	}
	t.onCell = func(kind comm.Kind, layer int) {
		reg.CounterFunc(fmt.Sprintf("bytes_%s_L%d", kind, layer), func() int64 {
			return t.sent(func(k comm.Kind, l int) bool { return k == kind && l == layer }).bytes
		})
	}
}

// Observer returns rank's transport event sink: sends feed the traffic
// store, receives the counters, wait histograms and error spans (nil
// on a nil Observatory, which transports treat as "no observation").
func (o *Observatory) Observer(rank int) comm.Observer {
	if o == nil {
		return nil
	}
	return &sink{traffic: o.traffic, o: o, tr: o.Node(rank)}
}

// sink implements comm.Observer for one node. Every sink feeds sends
// to the traffic store; one built by an Observatory also keeps the
// receive-side byte/message counters, wait-time histograms, and error
// spans for timed-out receives (the TimeoutError propagation contract).
type sink struct {
	traffic *Traffic
	o       *Observatory // nil: traffic accounting only
	tr      *Tracer
}

// ObserveSend accounts one sent message in the traffic store.
//
//kylix:hotpath
func (s *sink) ObserveSend(from, to int, tag comm.Tag, wire, raw int) {
	s.traffic.Record(from, to, tag, wire, raw)
}

// ObserveRecv records one delivery: counters and wait histogram on
// success, timeout accounting and an error span on failure.
//
//kylix:hotpath
func (s *sink) ObserveRecv(from int, tag comm.Tag, bytes int, wait time.Duration, err error) {
	o := s.o
	if o == nil {
		return
	}
	if err == nil {
		o.recvMsgs.Inc()
		o.recvBytes.Add(int64(bytes))
		if wait > 0 {
			o.recvWait.Observe(int64(wait))
		}
		return
	}
	if errors.Is(err, comm.ErrTimeout) {
		o.recvTimeouts.Inc()
		s.tr.RecordError(tag.Kind(), tag.Layer(), wait, err)
	}
}

// ObserveRecvGroup records the wait of one group receive.
//
//kylix:hotpath
func (s *sink) ObserveRecvGroup(tag comm.Tag, wait time.Duration) {
	if s.o != nil && wait > 0 {
		s.o.groupWait.Observe(int64(wait))
	}
}

// FaultObserver returns the hook the fault fabric calls once per
// injected fault: it bumps the per-event counter and drops an instant
// event on the faulty rank's timeline.
func (o *Observatory) FaultObserver() func(rank int, event string) {
	if o == nil {
		return nil
	}
	return func(rank int, event string) {
		if c := o.faultCounts[event]; c != nil {
			c.Inc()
		} else {
			o.reg.Counter("fault_" + event).Inc()
		}
		o.Node(rank).Instant(event)
	}
}

// Spans returns every buffered span across all nodes, sorted by start
// time. The result is a copy; tracing continues unaffected.
func (o *Observatory) Spans() []Span {
	if o == nil {
		return nil
	}
	var out []Span
	for _, t := range o.tracers {
		out = t.spans(out)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}
