package obs

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"kylix/internal/comm"
)

// LayerTraffic aggregates every message of one (kind, layer) cell.
type LayerTraffic struct {
	// Kind is the protocol phase (config, reduce, gather, ...).
	Kind comm.Kind
	// Layer is the communication layer the messages belong to.
	Layer int
	// Msgs and Bytes are network-wide totals, self-sends included (the
	// paper's Figure 5 counts "packets to its own").
	Msgs  int64
	Bytes int64
	// RawBytes is what the same messages would have cost in the
	// uncompressed wire format (8 bytes per index key, 4 bytes per
	// float32 value). The ratio RawBytes/Bytes is the codec's
	// compression factor at that layer: the index codec's for
	// configuration phases, the value codec's for value-only phases
	// (which equal Bytes only when quantization is off).
	RawBytes int64
	// SelfMsgs/SelfBytes count the self-send subset, so callers can also
	// report pure wire traffic; SelfRawBytes is their uncompressed
	// equivalent, so raw wire traffic is RawBytes - SelfRawBytes.
	SelfMsgs     int64
	SelfBytes    int64
	SelfRawBytes int64
	// MaxNodeRecvBytes is the largest per-receiver total. Fan-in is what
	// drives netsim's incast penalty, so the busiest receiver bounds a
	// layer.
	MaxNodeRecvBytes int64
}

type cellKey struct {
	kind  comm.Kind
	layer int
}

// senderCell is one sender's traffic within one (kind, layer) cell:
// its own totals plus per-receiver attribution.
type senderCell struct {
	msgs, bytes         int64
	rawBytes            int64
	selfMsgs, selfBytes int64
	selfRawBytes        int64
	recvBytes           []int64 // indexed by receiver rank
}

// shard owns one sender's cells. Each sender locks only its own shard,
// so the pipelined hot path — every machine's transport recording
// concurrently — never serializes senders against each other. The
// padding keeps neighbouring shards off one cache line.
type shard struct {
	mu    sync.Mutex //kylix:lock trace-shard obsfree — a shard section must stay a few loads/stores; observers would serialize senders
	cells map[cellKey]*senderCell
	// last caches the cell of the previous message: a sender emits a
	// layer's pieces back to back, so most sends skip the map.
	lastKey cellKey
	last    *senderCell
	_       [24]byte
}

// volume is a wire/raw byte pair.
type volume struct{ bytes, raw int64 }

// Traffic is the one store of transport traffic: per-(sender, kind,
// layer) cells fed by the event sink's ObserveSend. Traffic reports,
// netsim's input and the byte counters of /metrics are all read from
// it. It is safe for concurrent use; recording is sharded per sender,
// so concurrent senders do not contend.
type Traffic struct {
	m       int
	shards  []shard
	invalid atomic.Int64
	// onCell, when set by the Observatory that owns the store, is told
	// of every cell a sender opens, so /metrics lists a per-layer byte
	// counter for exactly the (kind, layer) pairs that carried traffic.
	onCell func(kind comm.Kind, layer int)

	// retired keeps the bytes of cells Reset cleared: the counters
	// /metrics derives from the store must not run backwards when a
	// report is reset. retiredMu is taken before any shard lock.
	retiredMu sync.Mutex
	retired   map[cellKey]volume
}

// NewTraffic creates the store for an m-machine cluster.
func NewTraffic(m int) *Traffic {
	t := &Traffic{m: m, shards: make([]shard, m), retired: make(map[cellKey]volume)}
	for i := range t.shards {
		t.shards[i].cells = make(map[cellKey]*senderCell)
	}
	return t
}

// Observer returns rank's transport event sink for a cluster that only
// accounts traffic (receive events are dropped).
func (t *Traffic) Observer(rank int) comm.Observer { return &sink{traffic: t} }

// Record accounts one sent message. Samples with an out-of-range sender
// or receiver are rejected entirely — counted by InvalidRecords rather
// than folded into network totals with missing attribution, which
// would silently skew MaxNodeRecvBytes (a bogus rank is a caller bug,
// not traffic).
//
//kylix:hotpath
func (t *Traffic) Record(from, to int, tag comm.Tag, bytes, rawBytes int) {
	if from < 0 || from >= t.m || to < 0 || to >= t.m {
		t.invalid.Add(1)
		return
	}
	k := cellKey{tag.Kind(), tag.Layer()}
	sh := &t.shards[from]
	sh.mu.Lock()
	cl, opened := sh.last, false
	if cl == nil || sh.lastKey != k {
		if cl = sh.cells[k]; cl == nil {
			cl, opened = openCell(sh, k, t.m), true
		}
		sh.lastKey, sh.last = k, cl
	}
	cl.msgs++
	cl.bytes += int64(bytes)
	cl.rawBytes += int64(rawBytes)
	if from == to {
		cl.selfMsgs++
		cl.selfBytes += int64(bytes)
		cl.selfRawBytes += int64(rawBytes)
	}
	cl.recvBytes[to] += int64(bytes)
	sh.mu.Unlock()
	if opened && t.onCell != nil {
		t.onCell(k.kind, k.layer)
	}
}

// openCell is Record's slow path: a sender's first message of a (kind,
// layer) pair in an m-machine cluster. Caller holds sh.mu.
//
//kylix:coldpath
func openCell(sh *shard, k cellKey, m int) *senderCell {
	cl := &senderCell{recvBytes: make([]int64, m)}
	sh.cells[k] = cl
	return cl
}

// InvalidRecords reports how many samples were rejected for an
// out-of-range sender or receiver rank.
func (t *Traffic) InvalidRecords() int64 { return t.invalid.Load() }

// Layers returns the aggregated traffic, sorted by kind then layer.
func (t *Traffic) Layers() []LayerTraffic {
	type agg struct {
		lt        LayerTraffic
		recvBytes []int64
	}
	cells := make(map[cellKey]*agg)
	for s := range t.shards {
		sh := &t.shards[s]
		sh.mu.Lock()
		for k, cl := range sh.cells {
			a := cells[k]
			if a == nil {
				a = &agg{lt: LayerTraffic{Kind: k.kind, Layer: k.layer}, recvBytes: make([]int64, t.m)}
				cells[k] = a
			}
			a.lt.Msgs += cl.msgs
			a.lt.Bytes += cl.bytes
			a.lt.RawBytes += cl.rawBytes
			a.lt.SelfMsgs += cl.selfMsgs
			a.lt.SelfBytes += cl.selfBytes
			a.lt.SelfRawBytes += cl.selfRawBytes
			for i, b := range cl.recvBytes {
				a.recvBytes[i] += b
			}
		}
		sh.mu.Unlock()
	}
	out := make([]LayerTraffic, 0, len(cells))
	for _, a := range cells {
		a.lt.MaxNodeRecvBytes = slices.Max(a.recvBytes)
		out = append(out, a.lt)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Kind != out[b].Kind {
			return out[a].Kind < out[b].Kind
		}
		return out[a].Layer < out[b].Layer
	})
	return out
}

// KindLayers returns only the cells of one kind, sorted by layer.
func (t *Traffic) KindLayers(kind comm.Kind) []LayerTraffic {
	all := t.Layers()
	out := all[:0:0]
	for _, lt := range all {
		if lt.Kind == kind {
			out = append(out, lt)
		}
	}
	return out
}

// Machines returns the cluster size the store was built for.
func (t *Traffic) Machines() int { return t.m }

// Reset clears all cells (e.g. between the configure and reduce timings
// of an experiment).
func (t *Traffic) Reset() {
	t.retiredMu.Lock()
	for s := range t.shards {
		sh := &t.shards[s]
		sh.mu.Lock()
		for k, cl := range sh.cells {
			v := t.retired[k]
			t.retired[k] = volume{v.bytes + cl.bytes, v.raw + cl.rawBytes}
		}
		sh.cells, sh.last = make(map[cellKey]*senderCell), nil
		sh.mu.Unlock()
	}
	t.retiredMu.Unlock()
	t.invalid.Store(0)
}

// sent sums every byte ever recorded in the cells match selects, those
// Reset cleared included: the monotonic view /metrics is derived from.
func (t *Traffic) sent(match func(kind comm.Kind, layer int) bool) volume {
	var v volume
	t.retiredMu.Lock()
	for k, r := range t.retired {
		if match(k.kind, k.layer) {
			v.bytes += r.bytes
			v.raw += r.raw
		}
	}
	for s := range t.shards {
		sh := &t.shards[s]
		sh.mu.Lock()
		for k, cl := range sh.cells {
			if match(k.kind, k.layer) {
				v.bytes += cl.bytes
				v.raw += cl.rawBytes
			}
		}
		sh.mu.Unlock()
	}
	t.retiredMu.Unlock()
	return v
}
