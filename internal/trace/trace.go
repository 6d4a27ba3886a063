// Package trace accumulates per-phase, per-layer traffic statistics from
// transport sends. The collected volumes regenerate Figure 5 (the
// "Kylix" per-layer communication profile) directly and feed the netsim
// cost model that converts traffic into modelled cluster time for
// Figures 6-9 and Table I.
package trace

import (
	"fmt"
	"sort"
	"strings"
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
	// MaxNodeBytes/MaxNodeMsgs are the largest per-sender totals; phase
	// completion time is governed by the busiest node.
	MaxNodeBytes int64
	MaxNodeMsgs  int64
	// MaxNodeRecvBytes/MaxNodeRecvMsgs are the largest per-receiver
	// totals. Fan-in is what drives netsim's incast penalty, so the
	// busiest receiver — not just the busiest sender — bounds a layer.
	MaxNodeRecvBytes int64
	MaxNodeRecvMsgs  int64
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
	recvMsgs, recvBytes []int64 // indexed by receiver rank
}

// shard owns one sender's cells. Each sender locks only its own shard,
// so the pipelined hot path — every machine's transport recording
// concurrently — never serializes senders against each other. The
// padding keeps neighbouring shards off one cache line.
type shard struct {
	//kylix:lock trace-shard
	mu    sync.Mutex //kylix:obsfree — a shard section must stay a few loads/stores; observers would serialize senders
	cells map[cellKey]*senderCell
	_     [40]byte
}

// Collector implements comm.Recorder. It is safe for concurrent use;
// recording is sharded per sender, so concurrent senders do not contend.
type Collector struct {
	m       int
	shards  []shard
	invalid atomic.Int64
}

// NewCollector creates a Collector for an m-machine cluster.
func NewCollector(m int) *Collector {
	c := &Collector{m: m, shards: make([]shard, m)}
	for i := range c.shards {
		c.shards[i].cells = make(map[cellKey]*senderCell)
	}
	return c
}

// Record implements comm.Recorder. Samples with an out-of-range sender
// or receiver are rejected entirely — counted by InvalidRecords rather
// than folded into network totals with missing attribution, which
// would silently skew MaxNode* (a bogus rank is a caller bug, not
// traffic).
func (c *Collector) Record(from, to int, tag comm.Tag, bytes, rawBytes int) {
	if from < 0 || from >= c.m || to < 0 || to >= c.m {
		c.invalid.Add(1)
		return
	}
	k := cellKey{tag.Kind(), tag.Layer()}
	sh := &c.shards[from]
	sh.mu.Lock()
	cl := sh.cells[k]
	if cl == nil {
		cl = &senderCell{recvMsgs: make([]int64, c.m), recvBytes: make([]int64, c.m)}
		sh.cells[k] = cl
	}
	cl.msgs++
	cl.bytes += int64(bytes)
	cl.rawBytes += int64(rawBytes)
	if from == to {
		cl.selfMsgs++
		cl.selfBytes += int64(bytes)
		cl.selfRawBytes += int64(rawBytes)
	}
	cl.recvMsgs[to]++
	cl.recvBytes[to] += int64(bytes)
	sh.mu.Unlock()
}

// InvalidRecords reports how many samples were rejected for an
// out-of-range sender or receiver rank.
func (c *Collector) InvalidRecords() int64 { return c.invalid.Load() }

// Layers returns the aggregated traffic, sorted by kind then layer.
func (c *Collector) Layers() []LayerTraffic {
	type agg struct {
		lt        LayerTraffic
		recvMsgs  []int64
		recvBytes []int64
	}
	cells := make(map[cellKey]*agg)
	for s := range c.shards {
		sh := &c.shards[s]
		sh.mu.Lock()
		for k, cl := range sh.cells {
			a := cells[k]
			if a == nil {
				a = &agg{
					lt:        LayerTraffic{Kind: k.kind, Layer: k.layer},
					recvMsgs:  make([]int64, c.m),
					recvBytes: make([]int64, c.m),
				}
				cells[k] = a
			}
			a.lt.Msgs += cl.msgs
			a.lt.Bytes += cl.bytes
			a.lt.RawBytes += cl.rawBytes
			a.lt.SelfMsgs += cl.selfMsgs
			a.lt.SelfBytes += cl.selfBytes
			a.lt.SelfRawBytes += cl.selfRawBytes
			// The shard index is the sender, so a shard's cell totals are
			// exactly that sender's contribution.
			if cl.bytes > a.lt.MaxNodeBytes {
				a.lt.MaxNodeBytes = cl.bytes
			}
			if cl.msgs > a.lt.MaxNodeMsgs {
				a.lt.MaxNodeMsgs = cl.msgs
			}
			for i := 0; i < c.m; i++ {
				a.recvMsgs[i] += cl.recvMsgs[i]
				a.recvBytes[i] += cl.recvBytes[i]
			}
		}
		sh.mu.Unlock()
	}
	out := make([]LayerTraffic, 0, len(cells))
	for _, a := range cells {
		for i := 0; i < c.m; i++ {
			if a.recvBytes[i] > a.lt.MaxNodeRecvBytes {
				a.lt.MaxNodeRecvBytes = a.recvBytes[i]
			}
			if a.recvMsgs[i] > a.lt.MaxNodeRecvMsgs {
				a.lt.MaxNodeRecvMsgs = a.recvMsgs[i]
			}
		}
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
func (c *Collector) KindLayers(kind comm.Kind) []LayerTraffic {
	all := c.Layers()
	out := all[:0:0]
	for _, lt := range all {
		if lt.Kind == kind {
			out = append(out, lt)
		}
	}
	return out
}

// TotalBytes sums the byte volume across all layers of a kind.
func (c *Collector) TotalBytes(kind comm.Kind) int64 {
	var total int64
	for _, lt := range c.KindLayers(kind) {
		total += lt.Bytes
	}
	return total
}

// Machines returns the cluster size the collector was built for.
func (c *Collector) Machines() int { return c.m }

// Reset clears all cells (e.g. between the configure and reduce timings
// of an experiment).
func (c *Collector) Reset() {
	for s := range c.shards {
		sh := &c.shards[s]
		sh.mu.Lock()
		sh.cells = make(map[cellKey]*senderCell)
		sh.mu.Unlock()
	}
	c.invalid.Store(0)
}

// String renders a compact per-layer table for logs.
func (c *Collector) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %5s %10s %14s %14s %14s\n", "kind", "layer", "msgs", "bytes", "maxNodeBytes", "maxRecvBytes")
	for _, lt := range c.Layers() {
		fmt.Fprintf(&b, "%-14s %5d %10d %14d %14d %14d\n", lt.Kind, lt.Layer, lt.Msgs, lt.Bytes, lt.MaxNodeBytes, lt.MaxNodeRecvBytes)
	}
	return b.String()
}
