// Package tcpnet is the TCP sockets transport: the Go analogue of the
// paper's pure-Java-sockets networking layer (§VI-C). Every ordered pair
// of machines gets its own connection, dialed lazily with retry so
// processes can start in any order; Send encodes the payload into the
// peer's send window, a per-peer writer goroutine walks the window onto
// the wire (asynchronous, opportunistic — §VI-B) and a reader goroutine
// per inbound connection demultiplexes frames into the same
// matched-receive mailbox the in-memory transport uses, in-process
// (loopback) or across real processes (cmd/kylix-node).
//
// The transport survives mid-stream connection loss: every frame carries
// a per-peer sequence number and stays in the sender's byte-bounded
// window until the receiver acknowledges it, in the header of the frames
// flowing the other way. When a stream breaks the writer reconnects with
// backoff plus jitter and replays exactly the un-acked frames; the
// receiver deduplicates by sequence number, so a fault injected mid-round
// loses nothing. Only when the reconnect budget is exhausted is the peer
// declared dead: the error surfaces on Close (and on Send with FailFast)
// while frames drop silently — the §V replication layer, not the
// transport, masks dead machines. DESIGN.md ("TCP transport: one send
// window per peer") has the header layout, the bound and who wakes whom.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kylix/internal/comm"
	"kylix/internal/obs"
)

const (
	// magic guards against cross-protocol connections.
	magic = 0x4b594c58 // "KYLX"
	// maxFrame bounds a frame to 1 GiB to fail fast on corruption.
	maxFrame = 1 << 30
	// hdrSize is the per-frame header: size(4) tag(8) crc(4) seq(8)
	// ack(8). ack acknowledges the reverse stream: the highest sequence
	// this side has delivered from the frame's receiver, stamped by the
	// writer as the frame leaves. A frame of size 0 and sequence 0 carries
	// only that (its tag is ackRequest or 0) and is never delivered.
	hdrSize = 32
	// windowFloor and windowFrames bound a send window and ackThreshold is
	// when its receiver must answer (see windowBound); readStep is the
	// most a reader allocates ahead of the bytes received.
	windowFloor  = 1 << 20
	windowFrames = 4
	ackThreshold = windowFloor / 2
	readStep     = 1 << 20
	// maxBatchFrames caps a coalesced batch's frame count — one iovec per
	// frame, well under the kernel's IOV_MAX of 1024. With quantized value
	// payloads this cap, not MaxBatchBytes, is what usually closes a batch.
	maxBatchFrames = 256
	// stallProbe is how long an idle writer lets frames sit un-acked
	// before it sends a header-only frame tagged ackRequest. On a
	// connection that died with everything written the probe (or the next)
	// is a write error — reconnect, replay; on a live one it draws the ack
	// a quiet reverse direction never carried.
	stallProbe = 200 * time.Millisecond
	ackRequest = 1
)

// windowBound is the byte budget of a send window whose largest frame so
// far is largest; a Send that would exceed it waits for an ack. The
// receiver forces a bare ack once ackThreshold bytes from one sender are
// delivered and un-acked, which is always in time: a blocked sender holds
// more than bound − frame ≥ (1 − 1/windowFrames)·bound ≥ ¾·windowFloor
// un-acked bytes, so once they are delivered owed > ¾·windowFloor >
// ackThreshold — a sender at its bound is always owed an ack.
func windowBound(largest int) int { return max(windowFloor, windowFrames*largest) }

// Options configure a Node.
type Options struct {
	// RecvTimeout bounds blocking receives, and a Send blocked on a full
	// window (0 = forever; default 30s).
	RecvTimeout time.Duration
	// DialTimeout bounds how long to keep retrying a peer's first dial
	// (default 10s).
	DialTimeout time.Duration
	// ReconnectTimeout bounds how long a broken peer stream retries
	// reconnecting (with exponential backoff + jitter) before the peer
	// is declared dead (default 15s).
	ReconnectTimeout time.Duration
	// MaxReconnectBackoff caps the exponential backoff between redial
	// attempts (default 400ms). A lower ceiling makes a churn-heavy
	// cluster re-establish streams faster at the cost of more dial
	// traffic against peers that are gone for good; the attempt count
	// per outage is surfaced via Metrics.ReconnectRetries either way.
	MaxReconnectBackoff time.Duration
	// MaxBatchBytes bounds the bytes of one coalesced write batch
	// (default 1 MiB): the writer gathers the frames waiting in the
	// window into a single writev, closing the batch at the first frame
	// that reaches the cap. The small sparse pieces of a deep butterfly
	// layer thus share syscalls and packets — the Fig 2 packet-size floor
	// enforced at the sender. Being a byte budget it needs no retuning
	// when value quantization shrinks frames 2-4x: they pack more per
	// batch until maxBatchFrames closes it. 1 disables coalescing.
	MaxBatchBytes int
	// EnableNagle leaves the kernel's Nagle algorithm on instead of
	// setting TCP_NODELAY. The default (Nagle off) is deliberate: flush
	// policy belongs to the batching writer, which already coalesces
	// everything queued in a protocol burst, and the burst's last small
	// packet must not wait on a delayed ACK.
	EnableNagle bool
	// FailFast makes Send return a peer's recorded stream error instead
	// of silently dropping. Leave it off under replication (§V requires
	// survivors to keep streaming to dead peers without erroring); turn
	// it on for unreplicated deployments that want prompt failure.
	FailFast bool
	// Observer, when set, builds the node's transport event sink from
	// its rank: the node reports its sends to it and the node's mailbox
	// its receives. Nil, or a nil result, is off.
	Observer func(rank int) comm.Observer
	// Metrics receives the transport-level counters (reconnects, window
	// occupancy, acks, dedup hits). Nil gets live but unregistered
	// metrics, so the stream machinery increments unconditionally.
	Metrics *obs.TransportMetrics
}

func (o Options) withDefaults() Options {
	if o.RecvTimeout == 0 {
		o.RecvTimeout = 30 * time.Second
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.ReconnectTimeout == 0 {
		o.ReconnectTimeout = 15 * time.Second
	}
	if o.MaxReconnectBackoff == 0 {
		o.MaxReconnectBackoff = 400 * time.Millisecond
	}
	if o.MaxBatchBytes == 0 {
		o.MaxBatchBytes = 1 << 20
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewTransportMetrics(nil)
	}
	return o
}

// Node is one machine of a TCP cluster. It implements comm.Endpoint.
type Node struct {
	rank  int
	addrs []string
	opts  Options
	box   *comm.Mailbox
	obs   comm.Observer // nil when nobody observes
	ln    net.Listener
	// pool recycles the buffers the readers decode value blocks into; the
	// mailbox's consumer hands them back with comm.Release. Its lock is a
	// leaf: readers decode before they take a sender's mu.
	pool comm.RecvPool

	mu      sync.Mutex
	peers   map[int]*peer
	inbound []net.Conn
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
	writers sync.WaitGroup

	from []sender // receive state per sender rank
}

// sender is what a node keeps about one rank's inbound stream.
type sender struct {
	// mu is held across Deliver so competing old/new connections from
	// this sender cannot interleave; other senders' readers do not wait.
	mu sync.Mutex //kylix:lock tcp-recv
	// seq is the highest sequence delivered: replays at or below it are
	// dropped, and the writer toward this rank piggybacks it as the ack.
	seq atomic.Uint64
	// owed counts the bytes delivered since an ack last left toward this
	// rank. The reader publishes seq, then adds; the writer zeroes, then
	// loads seq — bytes a zeroing erased are covered by the ack it sends.
	owed atomic.Int64
}

// peer is one outbound stream: the connection and its send window, the
// only store between Send and the wire — encoded frames in sequence
// order, trimmed from the front by acks, walked by the writer's cursor,
// rewound to the front by a reconnect.
type peer struct {
	conn net.Conn // set once dialed; closed by Node.Close to unblock writes; under Node.mu

	mu    sync.Mutex //kylix:lock tcp-window
	work  sync.Cond  // the writer waits here for frames past the cursor, an owed ack or probe, or close
	space sync.Cond  // full-window Sends wait here for an ack's trim, the peer's death, close or their own timer
	// frames are the un-acked frames, header included, oldest first:
	// frames[i] carries sequence seq-len(frames)+1+i. frames[:next] have
	// gone to the wire on the live connection; the last staged of them are
	// in the writer's open batch, not to be recycled before its writev
	// returns.
	frames       [][]byte
	next, staged int
	seq          uint64 // the newest frame's sequence
	acked        uint64 // highest cumulative ack received, <= seq
	wired        uint64 // highest sequence ever handed to the wire
	bytes        int    // sum of len(frames[i])
	largest      int    // largest frame admitted
	// free holds acknowledged frames' buffers for reuse: freeBytes of
	// capacity, at most a window's worth.
	free      [][]byte
	freeBytes int
	ackOwed   bool  // the reverse stream wants an ack even if no frame is waiting
	ping      bool  // the stall probe is due
	closed    bool  // the node is closing: drain from the cursor, admit nothing
	err       error // set once, when the stream is terminally lost
	// stall fires stallProbe after the writer went idle with frames
	// un-acked (armed: pending); acked == probed then means they still are.
	stall  *time.Timer
	armed  bool
	probed uint64
}

// push encodes one payload into the window on the caller's goroutine —
// the transport never looks at the payload again — and wakes the writer.
// A window at its bound waits for an ack first; the bound is at least
// windowFrames of this very frame, so an empty window admits anything.
//
//kylix:hotpath
func (p *peer) push(n *Node, to int, tag comm.Tag, pl comm.Payload) error {
	size := hdrSize + pl.WireSize()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.largest = max(p.largest, size)
	if p.bytes+size > windowBound(p.largest) {
		if err := p.waitSpace(n, to, tag, size); err != nil {
			return err
		}
	}
	switch {
	case p.closed:
		return comm.ErrClosed
	case p.err != nil && n.opts.FailFast:
		return p.err
	case p.err != nil:
		return nil
	}
	var buf []byte
	if k := len(p.free) - 1; k >= 0 {
		buf, p.free[k], p.free = p.free[k], nil, p.free[:k]
		p.freeBytes -= cap(buf)
	}
	if cap(buf) < size {
		//kylix:allow hotpathalloc:make -- until acked buffers of this size come round; an undersized one is dropped
		buf = make([]byte, hdrSize, size)
	}
	buf = pl.AppendTo(buf[:hdrSize])
	p.seq++
	putHeader(buf, tag, p.seq)
	//kylix:allow hotpathalloc:append -- the frame list is compacted in place by trim; growth is amortized zero
	p.frames = append(p.frames, buf)
	p.bytes += len(buf)
	n.opts.Metrics.WindowBytesHigh.SetMax(int64(p.bytes))
	p.work.Signal()
	return nil
}

// waitSpace parks a Send until the window has room for size more bytes,
// the peer is declared dead, the node closes, or RecvTimeout passes — the
// only case it reports, as a comm.TimeoutError. p.mu held.
//
//kylix:coldpath
func (p *peer) waitSpace(n *Node, to int, tag comm.Tag, size int) error {
	n.opts.Metrics.SendBlocked.Inc()
	start, limit := time.Now(), n.opts.RecvTimeout
	if limit > 0 {
		defer time.AfterFunc(limit, p.space.Broadcast).Stop()
	}
	for p.bytes+size > windowBound(p.largest) && p.err == nil && !p.closed {
		if waited := time.Since(start); limit > 0 && waited >= limit {
			return fmt.Errorf("tcpnet: send blocked on rank %d's full window (%d bytes un-acked): %w",
				to, p.bytes, &comm.TimeoutError{Tag: tag, From: []int{to}, Elapsed: waited})
		}
		p.space.Wait()
	}
	return nil
}

// probe is the stall timer: no ack since it was armed means the frames
// un-acked then still are, so the writer is told to ask for one.
func (p *peer) probe() {
	p.mu.Lock()
	p.armed = false
	p.ping = len(p.frames) > 0 && p.acked == p.probed
	p.mu.Unlock()
	p.work.Signal()
}

// ack applies a cumulative acknowledgement from the peer and returns
// where the stream now stands. It is a monotonic max clamped to what was
// sent: a regressing or forged value frees nothing.
func (p *peer) ack(seq uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if seq > p.acked && seq <= p.seq {
		p.acked = seq
		p.trim()
	}
	return p.acked
}

// trim pops the acknowledged frames the writer is done with off the
// front, banks their buffers and wakes blocked Sends. p.mu held.
//
//kylix:hotpath
func (p *peer) trim() {
	k := min(len(p.frames)-int(p.seq-p.acked), p.next-p.staged)
	if k <= 0 {
		return
	}
	for _, b := range p.frames[:k] {
		p.bytes -= len(b)
		if p.freeBytes+cap(b) <= windowBound(p.largest) {
			//kylix:allow hotpathalloc:append -- capped at a window of capacity; steady state never grows
			p.free = append(p.free, b)
			p.freeBytes += cap(b)
		}
	}
	p.frames = slices.Delete(p.frames, 0, k) // shifts down in place, zeroes the tail
	p.next -= k
	p.space.Broadcast()
}

// stage moves the cursor over the waiting frames, into the writer's
// batch, each stamped with ack; with none waiting, an owed ack or a due
// probe goes out bare. It returns how many of the staged frames reach the
// wire for the first time (replays are not sent twice). p.mu held.
//
//kylix:hotpath
func (p *peer) stage(b *batcher, ack uint64) (fresh int) {
	for p.staged = 0; p.next < len(p.frames) && !b.full(); p.staged++ {
		b.stage(p.frames[p.next], ack)
		p.next++
	}
	if p.staged == 0 && (p.ping || p.ackOwed && ack > 0) {
		b.bare[4] = 0
		if p.ping {
			b.bare[4] = ackRequest
		}
		b.stage(b.bare[:], ack)
		b.metrics.AcksBare.Inc()
	}
	p.ackOwed, p.ping = false, false
	if hi := p.seq - uint64(len(p.frames)-p.next); hi > p.wired {
		fresh = int(min(hi-p.wired, uint64(p.staged)))
		p.wired = hi
	}
	return fresh
}

// batcher coalesces window frames into gather-write batches: one writev
// per burst the writer finds waiting, one iovec per frame (the header is
// the head of the frame's own buffer).
type batcher struct {
	iov, out net.Buffers   // staged frames; the copy of iov's header a write consumes
	bare     [hdrSize]byte // the header-only frame: size 0, sequence 0
	nf       int
	bytes    int
	maxBytes int
	metrics  *obs.TransportMetrics
}

func newBatcher(maxBytes int, m *obs.TransportMetrics) *batcher {
	return &batcher{iov: make(net.Buffers, maxBatchFrames), maxBytes: maxBytes, metrics: m}
}

// stage appends one frame to the open batch, stamping the ack field of
// its header.
//
//kylix:hotpath
func (b *batcher) stage(frame []byte, ack uint64) {
	binary.LittleEndian.PutUint64(frame[24:hdrSize], ack)
	b.iov[b.nf] = frame
	b.nf++
	b.bytes += len(frame)
}

// full reports whether the batch must flush before staging more.
//
//kylix:hotpath
func (b *batcher) full() bool { return b.nf >= maxBatchFrames || b.bytes >= b.maxBytes }

// flush gather-writes the staged frames in one writev and resets the
// batch, counting fresh of them as sent; false on stream failure (the
// frames stay in the window for the reconnect replay).
//
//kylix:hotpath
func (b *batcher) flush(conn net.Conn, fresh int) bool {
	if b.nf == 0 {
		return true
	}
	// WriteTo consumes its receiver (advancing the slice as the kernel
	// accepts iovecs), so hand it a copy of the header; the backing array
	// stays ours to refill. A field, because the receiver escapes: a
	// local would be a heap allocation per flush.
	b.out = b.iov[:b.nf]
	b.metrics.WritevCalls.Inc()
	b.metrics.FramesSent.Add(int64(fresh))
	if b.nf > 1 {
		b.metrics.FramesBatched.Add(int64(fresh))
	}
	b.nf, b.bytes = 0, 0
	_, err := b.out.WriteTo(conn)
	return err == nil
}

// Listen creates the node for `rank` and starts accepting on
// addrs[rank]. The address may use port 0; Addr() reports the bound
// address for the caller to distribute.
//
//kylix:owned
func Listen(rank int, addrs []string, opts Options) (*Node, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("tcpnet: rank %d out of [0,%d)", rank, len(addrs))
	}
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("tcpnet: rank %d listen: %w", rank, err)
	}
	n := &Node{
		rank:  rank,
		addrs: append([]string(nil), addrs...),
		opts:  opts,
		box:   comm.NewMailbox(opts.RecvTimeout),
		ln:    ln,
		peers: make(map[int]*peer),
		done:  make(chan struct{}),
		from:  make([]sender, len(addrs)),
	}
	n.addrs[rank] = ln.Addr().String()
	n.pool.Miss, n.pool.Parked = opts.Metrics.RecvPoolMisses.Inc, opts.Metrics.RecvPoolBytesHigh.SetMax
	if opts.Observer != nil {
		if o := opts.Observer(rank); o != nil {
			n.obs = o
			n.box.SetObserver(o)
		}
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's bound listen address.
func (n *Node) Addr() string { return n.addrs[n.rank] }

// Rank implements comm.Endpoint.
func (n *Node) Rank() int { return n.rank }

// Size implements comm.Endpoint.
func (n *Node) Size() int { return len(n.addrs) }

// Send implements comm.Endpoint: it encodes the payload into the peer's
// send window — after which the caller's buffers are its own again — and
// waits only when the window is full (see windowBound). A send to the
// node itself is the exception: it is delivered by reference, like
// memnet's, so the payload is not the caller's again until the message
// has been received (core's arena keeps a piece it ships until the
// receiver must have read it), and what the receiver gets has no pool to
// go back to. With FailFast, a peer whose stream was terminally lost returns its
// recorded error; otherwise dead-peer traffic drops silently (replication
// masks it) and the error surfaces on Close.
func (n *Node) Send(to int, tag comm.Tag, p comm.Payload) error {
	if to < 0 || to >= len(n.addrs) {
		return fmt.Errorf("tcpnet: send to rank %d out of [0,%d)", to, len(n.addrs))
	}
	// Unobserved sends skip WireSize (loopback sends never serialize
	// otherwise).
	if n.obs != nil {
		n.obs.ObserveSend(n.rank, to, tag, p.WireSize(), comm.RawWireSize(p))
	}
	if to == n.rank {
		// Loopback without the kernel round-trip, mirroring the paper's
		// treatment of a node's own packets.
		n.box.Deliver(n.rank, tag, p)
		return nil
	}
	pr, err := n.peerFor(to)
	if err != nil {
		return err
	}
	return pr.push(n, to, tag, p)
}

// Recv implements comm.Endpoint.
func (n *Node) Recv(from int, tag comm.Tag) (comm.Payload, error) {
	return n.box.Recv(from, tag)
}

// RecvGroup implements comm.Endpoint.
func (n *Node) RecvGroup(groups [][]int, tag comm.Tag) (int, comm.Payload, error) {
	return n.box.RecvGroup(groups, tag)
}

// CloseStream tears down one stream's namespace on this node: queued
// messages dropped from the pending index, blocked receives failed with
// ErrStreamClosed. The send windows are left alone — they are seq-keyed
// per peer, and a replay may carry frames of a closed stream; the
// mailbox's dead-stream mark drops those on delivery.
func (n *Node) CloseStream(id comm.StreamID) { n.box.CloseStream(id) }

// StreamPending reports one stream's queued, undelivered messages on
// this node (tests and leak diagnostics).
func (n *Node) StreamPending(id comm.StreamID) int { return n.box.StreamPending(id) }

// IndexedTags reports the node's tags with undelivered messages
// (tests and leak diagnostics).
func (n *Node) IndexedTags() int { return n.box.IndexedTags() }

// Close shuts the node down in two phases: first it signals writers to
// flush the frames past their cursors (a rank finishing a collective
// early must not strand its final messages) and grants them a short
// grace period (for the writes, never for acks), then it force-closes
// every connection so parked reader/writer goroutines unblock — without
// the force-close, two nodes closing in sequence deadlock waiting on
// each other's streams. It returns the join of the peers' terminal
// stream errors, so a silently-degraded run is visible at teardown.
//
//kylix:owned
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	_ = n.ln.Close()
	for _, pr := range n.peers {
		// The writer drains what is past its cursor and exits, blocked
		// Sends return ErrClosed. Nobody waits for acks.
		pr.mu.Lock()
		pr.closed = true
		pr.mu.Unlock()
		pr.work.Signal()
		pr.space.Broadcast()
	}
	n.mu.Unlock()

	// Buffered so the send never blocks: if the grace period expires
	// first, the waiter still parks its result and exits as soon as the
	// force-closed writers drain (n.wg.Wait below subsumes them).
	flushed := make(chan struct{}, 1)
	go func() {
		n.writers.Wait()
		flushed <- struct{}{}
	}()
	select {
	case <-flushed:
	case <-time.After(2 * time.Second):
	}

	n.mu.Lock()
	var errs []error
	for _, pr := range n.peers {
		if pr.conn != nil {
			_ = pr.conn.Close()
		}
		pr.mu.Lock()
		errs = append(errs, pr.err) // Join drops the nils
		pr.mu.Unlock()
	}
	for _, c := range n.inbound {
		_ = c.Close()
	}
	n.mu.Unlock()

	n.box.Close()
	n.wg.Wait()
	return errors.Join(errs...)
}

// peerFor returns (starting if necessary) the writer for a peer.
//
//kylix:owned
func (n *Node) peerFor(to int) (*peer, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, comm.ErrClosed
	}
	if pr, ok := n.peers[to]; ok {
		return pr, nil
	}
	pr := &peer{}
	pr.work.L, pr.space.L = &pr.mu, &pr.mu
	pr.stall = time.AfterFunc(time.Hour, pr.probe)
	pr.stall.Stop() // armed by the writer
	n.peers[to] = pr
	n.wg.Add(1)
	n.writers.Add(1)
	go n.writeLoop(to, pr)
	return pr, nil
}

// writeLoop owns one peer stream: it walks the window onto the wire in
// writev batches, stamping each frame with the reverse stream's ack, and
// transparently redials (backoff + jitter) whenever the stream breaks —
// a reconnect rewinds the cursor to the front of the window, so exactly
// the un-acked frames are replayed.
func (n *Node) writeLoop(to int, pr *peer) {
	defer n.wg.Done()
	defer n.writers.Done()
	var (
		conn   net.Conn
		dialed bool // first connection established at least once
		in     = &n.from[to]
		batch  = newBatcher(n.opts.MaxBatchBytes, n.opts.Metrics)
	)
	// Jitter source for reconnect backoff. Timing only — protocol
	// decisions never depend on it.
	rng := newJitterRNG()

	disconnect := func() {
		if conn == nil {
			return
		}
		_ = conn.Close()
		n.mu.Lock()
		if pr.conn == conn {
			pr.conn = nil
		}
		n.mu.Unlock()
		conn = nil
	}
	defer disconnect()

	// dial opens one connection to the peer and handshakes; on success
	// the cursor is back at the front of the window.
	dial := func(timeout time.Duration) bool {
		c, err := net.DialTimeout("tcp", n.addrs[to], timeout)
		if err != nil {
			return false
		}
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(!n.opts.EnableNagle)
		}
		hs := binary.LittleEndian.AppendUint32(nil, magic)
		if _, err := c.Write(binary.LittleEndian.AppendUint32(hs, uint32(n.rank))); err != nil {
			_ = c.Close()
			return false
		}
		conn = c // the deferred disconnect closes it
		pr.mu.Lock()
		pr.next, pr.staged = 0, 0
		pr.mu.Unlock()
		return true
	}

	// connect redials the peer until the budget expires (receiver-side
	// dedup makes the replay that follows idempotent). False means budget
	// exhausted or shutting down.
	connect := func(budget time.Duration) bool {
		disconnect()
		deadline, backoff, attempts := time.Now().Add(budget), 5*time.Millisecond, int64(0)
		defer func() { n.opts.Metrics.ReconnectRetries.Observe(attempts) }()
		for {
			select {
			case <-n.done:
				return false
			default:
			}
			// DialTimeout reads a zero or negative timeout as "none": stop
			// at the deadline instead of dialing unbounded.
			remain := time.Until(deadline)
			if remain <= 0 {
				return false
			}
			n.opts.Metrics.ReconnectAttempts.Inc()
			attempts++
			if dial(remain) {
				n.mu.Lock()
				if !n.closed {
					pr.conn = conn
				}
				n.mu.Unlock()
				dialed = true
				n.opts.Metrics.Reconnects.Inc()
				return true
			}
			// Exponential backoff with jitter so a rebooting peer is not
			// hammered in lockstep by every survivor, capped so a long
			// outage keeps probing at a steady rate.
			select {
			case <-n.done:
				return false
			case <-time.After(backoff/2 + time.Duration(rng.Int63n(int64(backoff)))):
			}
			backoff = min(2*backoff, max(backoff, n.opts.MaxReconnectBackoff))
		}
	}

	// pump writes from the cursor until nothing waits. A scatter or
	// gather layer pushes all its pieces before its first receive can
	// complete, so the cursor reaching the end is the layer boundary.
	// Frames stay in the window until acked: a mid-batch stream failure
	// (false) loses nothing.
	pump := func() bool {
		for {
			pr.mu.Lock()
			if pr.next == len(pr.frames) && !pr.ackOwed && !pr.ping {
				pr.mu.Unlock()
				return true
			}
			in.owed.Store(0) // before the load: see sender.owed
			fresh := pr.stage(batch, in.seq.Load())
			pr.mu.Unlock()
			ok := batch.flush(conn, fresh)
			pr.mu.Lock()
			pr.staged = 0
			pr.trim()
			pr.mu.Unlock()
			if !ok {
				return false
			}
		}
	}

	// shutdownFlush drains the frames still past the cursor at Close time
	// (a rank that finishes a collective early must not strand its last
	// messages). If no stream is up — Close can win the race against the
	// lazy first dial — it makes one best-effort dial and drains the whole
	// window. The write deadline bounds the flush; no reconnects now.
	shutdownFlush := func() {
		if conn == nil && !dial(time.Second) {
			return
		}
		_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		pump()
	}

	for {
		pr.mu.Lock()
		for pr.next == len(pr.frames) && !pr.ackOwed && !pr.ping && !pr.closed {
			if len(pr.frames) > 0 && !pr.armed { // idle with frames un-acked
				pr.armed, pr.probed = true, pr.acked
				pr.stall.Reset(stallProbe)
			}
			pr.work.Wait()
		}
		closed := pr.closed
		pr.mu.Unlock()
		if closed {
			shutdownFlush()
			return
		}
		if conn != nil && pump() {
			continue
		}
		// Stream broken (or not yet dialed): rebuild it, then replay.
		budget := n.opts.ReconnectTimeout
		if !dialed {
			budget = n.opts.DialTimeout
		}
		if !connect(budget) {
			select {
			case <-n.done:
				shutdownFlush() // clean shutdown, not a peer failure
				return
			default:
			}
			// The peer is unreachable (dead machine). Record the loss and
			// park until shutdown; Sends drop from here on — the
			// replication layer is responsible for masking dead peers.
			n.opts.Metrics.StreamsLost.Inc()
			pr.mu.Lock()
			pr.err = fmt.Errorf("tcpnet: rank %d -> %d stream lost (%s): reconnect budget %v exhausted",
				n.rank, to, n.addrs[to], budget)
			pr.mu.Unlock()
			pr.space.Broadcast()
			<-n.done
			return
		}
	}
}

// newJitterRNG builds the backoff jitter source for one writer
// incarnation, seeded from the process-global entropy-seeded generator.
// A fixed (rank, peer) seed would make every restart of the process
// replay the identical "jitter" sequence, so the survivors of a peer
// reboot retry in lockstep run after run — exactly the thundering herd
// jitter exists to break. Protocol decisions never depend on this.
func newJitterRNG() *rand.Rand {
	return rand.New(rand.NewSource(rand.Int63()))
}

// putHeader fills in the header at the head of an encoded frame — size,
// tag, CRC32-C payload checksum, sequence number; the writer stamps the
// ack. The checksum guards against the payload corruption the paper flags
// as a risk of large message counts (§II-A2): a corrupted frame is
// detected and the stream dropped — which triggers the sender's
// reconnect-and-replay instead of silent loss.
//
//kylix:hotpath
func putHeader(frame []byte, tag comm.Tag, seq uint64) {
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(frame)-hdrSize))
	binary.LittleEndian.PutUint64(frame[4:12], uint64(tag))
	binary.LittleEndian.PutUint32(frame[12:16], crc32.Checksum(frame[hdrSize:], castagnoli))
	binary.LittleEndian.PutUint64(frame[16:24], seq)
}

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// acceptLoop admits inbound connections and spawns a reader per peer.
//
//kylix:owned
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.inbound = append(n.inbound, conn)
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop validates the handshake and demuxes frames into the mailbox,
// dropping frames already delivered from the same sender (sequence
// dedup makes reconnect replays idempotent), and applies the acks they
// carry to this node's own stream toward the sender. Sequence 0 marks an
// unsequenced frame (never deduped), kept for hand-rolled test senders.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	var hdr [hdrSize]byte
	if _, err := io.ReadFull(conn, hdr[:8]); err != nil {
		return
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != magic {
		return
	}
	from := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if from < 0 || from >= len(n.addrs) {
		return
	}
	in := &n.from[from]
	// buf is reused across frames (grow-only): Decode copies all referenced
	// bytes into the typed payload, so the raw frame can be overwritten by
	// the next read.
	var buf []byte
	var acked uint64 // where our stream toward the sender stood at the last ack applied
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		size := int(binary.LittleEndian.Uint32(hdr[:4]))
		if size > maxFrame {
			return
		}
		tag := comm.Tag(binary.LittleEndian.Uint64(hdr[4:12]))
		sum := binary.LittleEndian.Uint32(hdr[12:16])
		seq := binary.LittleEndian.Uint64(hdr[16:24])
		ack := binary.LittleEndian.Uint64(hdr[24:32])
		// Grow toward the announced size only as bytes arrive, so a forged
		// length costs the forger the bytes, not us a gigabyte.
		buf = buf[:0]
		for len(buf) < size {
			step := min(size-len(buf), readStep)
			buf = slices.Grow(buf, step)[:len(buf)+step]
			if _, err := io.ReadFull(conn, buf[len(buf)-step:]); err != nil {
				return
			}
		}
		if crc32.Checksum(buf, castagnoli) != sum {
			// Corrupted frame: drop the stream. Closing the connection
			// surfaces a write error at the sender, whose reconnect replays
			// its window — the frame is redelivered intact, not lost.
			return
		}
		if ack > acked {
			n.mu.Lock()
			pr := n.peers[from]
			n.mu.Unlock()
			if pr != nil {
				acked = pr.ack(ack)
			}
		}
		if size == 0 { // header-only: the ack just applied, or a request for ours
			if tag == ackRequest {
				n.oweAck(from)
			}
			continue
		}
		p, err := n.pool.Decode(buf)
		if err != nil {
			return
		}
		in.mu.Lock()
		if seq != 0 && seq <= in.seq.Load() {
			in.mu.Unlock()
			comm.Release(p) // nobody else saw it
			n.opts.Metrics.DedupHits.Inc()
			n.oweAck(from) // a replay means the sender never saw our ack
			continue
		}
		if seq != 0 {
			in.seq.Store(seq)
		}
		n.box.Deliver(from, tag, p)
		in.mu.Unlock()
		if in.owed.Add(int64(hdrSize+size)) >= ackThreshold {
			n.oweAck(from)
		}
	}
}

// oweAck makes the writer toward a rank send an ack now, bare if it has
// no frame to carry it: the reverse direction may be idle for good.
func (n *Node) oweAck(to int) {
	pr, err := n.peerFor(to)
	if err != nil {
		return // closing
	}
	pr.mu.Lock()
	pr.ackOwed = true
	pr.mu.Unlock()
	pr.work.Signal()
}

// LocalCluster spins up m nodes on loopback ephemeral ports within this
// process and returns them fully wired. It is the harness used by tests,
// benchmarks and the quickstart example; cross-process deployments use
// Listen directly with a shared host file.
func LocalCluster(m int, opts Options) ([]*Node, error) {
	// Bind every listener first so the address table is complete before
	// anyone dials.
	nodes := make([]*Node, m)
	addrs := make([]string, m)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	for i := 0; i < m; i++ {
		node, err := Listen(i, addrs, opts)
		if err != nil {
			for _, prev := range nodes[:i] {
				_ = prev.Close()
			}
			return nil, err
		}
		nodes[i] = node
		// Propagate the bound address to the remaining nodes' tables.
		addrs[i] = node.Addr()
		for j := 0; j < i; j++ {
			nodes[j].addrs[i] = node.Addr()
		}
	}
	return nodes, nil
}

// CloseAll closes every node of a local cluster and returns the join
// of their terminal stream errors, so a silently-degraded run is
// visible at teardown.
func CloseAll(nodes []*Node) error {
	var errs []error
	for _, n := range nodes {
		if n != nil {
			if err := n.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
