// Package tcpnet is the TCP sockets transport: the Go analogue of the
// paper's pure-Java-sockets networking layer (§VI-C). Every ordered pair
// of machines gets its own connection, dialed lazily with retry so
// processes can start in any order; sends are enqueued to a per-peer
// writer goroutine (asynchronous, opportunistic — §VI-B) and a reader
// goroutine per inbound connection demultiplexes frames into the same
// matched-receive mailbox the in-memory transport uses. It works both
// in-process (loopback, for tests and benchmarks) and across real
// processes (cmd/kylix-node).
//
// The transport survives mid-stream connection loss: every frame
// carries a monotonic per-peer sequence number and the writer keeps a
// bounded resend ring. When a stream breaks (write error, corrupted
// frame dropped by the receiver, transient network fault) the writer
// reconnects with exponential backoff plus jitter and replays the ring;
// the receiver deduplicates by sequence number, so redelivery is
// idempotent and a fault injected mid-round loses nothing. Only when
// the reconnect budget is exhausted is the peer declared dead: the
// error is recorded and surfaced on Close (and on Send with FailFast),
// while frames keep draining silently — the §V replication layer, not
// the transport, is responsible for masking dead machines.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"kylix/internal/comm"
	"kylix/internal/obs"
)

const (
	// magic guards against cross-protocol connections.
	magic = 0x4b594c58 // "KYLX"
	// maxFrame bounds a frame to 1 GiB to fail fast on corruption.
	maxFrame = 1 << 30
	// hdrSize is the per-frame header: size(4) tag(8) crc(4) seq(8).
	hdrSize = 24
)

// Options configure a Node.
type Options struct {
	// RecvTimeout bounds blocking receives (0 = forever; default 30s).
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
	// ResendBuffer is how many recent frames each peer stream retains
	// for replay after a reconnect (default 4096). Frames older than
	// the ring that were lost in flight are unrecoverable — the ring
	// bounds memory, and is sized far beyond the in-flight window a
	// broken socket can lose.
	ResendBuffer int
	// MaxBatchBytes bounds the payload bytes of one coalesced write
	// batch (default 1 MiB): the writer drains its queue and gathers
	// the pending frames into a single writev, closing the batch at the
	// first frame that reaches the cap. The small sparse pieces of a
	// deep butterfly layer thus share syscalls and packets — the Fig 2
	// packet-size floor enforced at the sender. The cap is a byte budget,
	// so it needs no retuning when value quantization (core.Options.Quant)
	// shrinks each frame 2-4x: smaller frames simply pack more per batch,
	// until maxBatchFrames (not bytes) closes it. 1 effectively disables
	// coalescing (every frame still leaves in one writev instead of two
	// sequential writes).
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
	// Metrics receives the transport-level counters (reconnects, resend
	// ring occupancy, dedup hits). Nil gets live but unregistered
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
	if o.ResendBuffer == 0 {
		o.ResendBuffer = 4096
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

	mu      sync.Mutex
	peers   map[int]*peer
	inbound []net.Conn
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
	writers sync.WaitGroup

	// recvSeq tracks the highest frame sequence delivered per sender so
	// replayed frames after a sender's reconnect are dropped exactly
	// once each. Guarded by recvMu (held across Deliver so competing
	// old/new connections from one sender cannot interleave).
	recvMu  sync.Mutex
	recvSeq []uint64
}

type peer struct {
	queue chan frame
	conn  net.Conn // set once dialed; closed by Node.Close to unblock writes

	mu  sync.Mutex
	err error // sticky: set when the stream is terminally lost
}

// fail records the first terminal stream error; later Sends (FailFast)
// and Close surface it.
func (p *peer) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *peer) lastErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// frame is one queued send, not yet encoded. Encoding happens on the
// peer's writer goroutine, not the sender's: the protocol goroutine
// returns from Send immediately and every peer stream encodes its own
// traffic in parallel, while the writer recycles encode buffers evicted
// from the resend ring (steady-state sends stop allocating once the
// ring has turned over).
type frame struct {
	tag comm.Tag
	p   comm.Payload
}

// stamped is an encoded frame with its stream sequence number, as kept
// in the resend ring.
type stamped struct {
	seq  uint64
	tag  comm.Tag
	data []byte
}

// ring is the bounded per-peer resend buffer: the most recent frames in
// send order, replayed after a reconnect.
type ring struct {
	buf   []stamped
	start int
	n     int
}

func newRing(capacity int) *ring { return &ring{buf: make([]stamped, capacity)} }

// push appends a frame, returning the encode buffer of the frame it
// evicted (nil while the ring is filling). An evicted frame can never
// be replayed again, so its buffer is free for reuse.
func (r *ring) push(s stamped) []byte {
	if r.n == len(r.buf) {
		evicted := r.buf[r.start].data
		r.buf[r.start] = s
		r.start = (r.start + 1) % len(r.buf)
		return evicted
	}
	r.buf[(r.start+r.n)%len(r.buf)] = s
	r.n++
	return nil
}

// each visits buffered frames oldest-first; stops on false.
func (r *ring) each(fn func(stamped) bool) bool {
	for i := 0; i < r.n; i++ {
		if !fn(r.buf[(r.start+i)%len(r.buf)]) {
			return false
		}
	}
	return true
}

// maxBatchFrames caps a coalesced batch's frame count. Two iovecs per
// frame (header, payload) keeps the largest batch at 512 iovecs, well
// under the kernel's IOV_MAX of 1024; the batcher additionally clamps
// to the resend ring's capacity, because a frame evicted from the ring
// recycles its encode buffer and an eviction must therefore never land
// on a frame still staged in the current batch (possible only if one
// batch outgrew the whole ring). With quantized value payloads (2-4x
// smaller frames) this count cap, not MaxBatchBytes, is what usually
// closes a batch — still one writev per burst, just a fuller one.
const maxBatchFrames = 256

// batcher coalesces encoded frames into gather-write batches: one
// writev per drained queue burst instead of two write syscalls per
// frame. iov and the header arena are sized once — the arena must
// never grow mid-batch, since staged iovecs point into it.
type batcher struct {
	iov      net.Buffers
	hdrs     []byte
	nf       int
	bytes    int
	maxF     int
	maxBytes int
	metrics  *obs.TransportMetrics
}

func newBatcher(ringCap, maxBytes int, m *obs.TransportMetrics) *batcher {
	maxF := maxBatchFrames
	if ringCap < maxF {
		maxF = ringCap
	}
	if maxF < 1 {
		maxF = 1
	}
	return &batcher{
		iov:      make(net.Buffers, 2*maxF),
		hdrs:     make([]byte, maxF*hdrSize),
		maxF:     maxF,
		maxBytes: maxBytes,
		metrics:  m,
	}
}

// stage appends one encoded frame to the open batch: its header is
// written into the arena slot and both slices join the iovec list.
//
//kylix:hotpath
func (b *batcher) stage(s stamped) {
	h := b.hdrs[b.nf*hdrSize : (b.nf+1)*hdrSize]
	putHeader(h, s)
	b.iov[2*b.nf] = h
	b.iov[2*b.nf+1] = s.data
	b.nf++
	b.bytes += len(s.data)
}

// full reports whether the batch must flush before staging more.
//
//kylix:hotpath
func (b *batcher) full() bool { return b.nf >= b.maxF || b.bytes >= b.maxBytes }

// flush gather-writes the staged frames in one writev and resets the
// batch; false on stream failure (the frames stay in the resend ring
// for the reconnect replay).
//
//kylix:hotpath
func (b *batcher) flush(conn net.Conn) bool {
	if b.nf == 0 {
		return true
	}
	// WriteTo consumes its receiver (advancing the slice as the kernel
	// accepts iovecs), so hand it a copy of the header; the backing
	// array stays ours to refill.
	bufs := b.iov[:2*b.nf]
	b.metrics.WritevCalls.Inc()
	b.metrics.FramesSent.Add(int64(b.nf))
	if b.nf > 1 {
		b.metrics.FramesBatched.Add(int64(b.nf))
	}
	b.nf, b.bytes = 0, 0
	_, err := bufs.WriteTo(conn)
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
		rank:    rank,
		addrs:   append([]string(nil), addrs...),
		opts:    opts,
		box:     comm.NewMailbox(opts.RecvTimeout),
		ln:      ln,
		peers:   make(map[int]*peer),
		done:    make(chan struct{}),
		recvSeq: make([]uint64, len(addrs)),
	}
	n.addrs[rank] = ln.Addr().String()
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

// Send implements comm.Endpoint: it encodes the payload and enqueues it
// on the peer's writer, never blocking on the network. With FailFast, a
// peer whose stream was terminally lost returns its recorded error;
// otherwise dead-peer traffic drops silently (replication masks it) and
// the error surfaces on Close.
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
	if n.opts.FailFast {
		if perr := pr.lastErr(); perr != nil {
			return perr
		}
	}
	select {
	case pr.queue <- frame{tag: tag, p: p}:
		return nil
	default:
		// The queue is sized far beyond any protocol burst; hitting the
		// limit means the peer stopped draining for a long time.
		return fmt.Errorf("tcpnet: rank %d -> %d writer queue overflow", n.rank, to)
	}
}

// Recv implements comm.Endpoint.
func (n *Node) Recv(from int, tag comm.Tag) (comm.Payload, error) {
	return n.box.Recv(from, tag)
}

// RecvAny implements comm.Endpoint.
func (n *Node) RecvAny(froms []int, tag comm.Tag) (int, comm.Payload, error) {
	return n.box.RecvAny(froms, tag)
}

// RecvGroup implements comm.Endpoint.
func (n *Node) RecvGroup(groups [][]int, tag comm.Tag) (int, comm.Payload, error) {
	return n.box.RecvGroup(groups, tag)
}

// CloseStream tears down one stream's namespace on this node: queued
// messages dropped, pending-sender index purged, blocked receives
// failed with ErrStreamClosed. The resend ring is deliberately left
// alone — it is seq-keyed per peer, and a reconnect replay may carry
// frames of a closed stream; the mailbox's dead-stream mark drops
// those on delivery, which keeps replay simple and loss-free for every
// surviving stream.
func (n *Node) CloseStream(id comm.StreamID) { n.box.CloseStream(id) }

// StreamPending reports one stream's queued, undelivered messages on
// this node (tests and leak diagnostics).
func (n *Node) StreamPending(id comm.StreamID) int { return n.box.StreamPending(id) }

// IndexedTags reports the node's live pending-sender index entries
// (tests and leak diagnostics).
func (n *Node) IndexedTags() int { return n.box.IndexedTags() }

// Close shuts the node down in two phases: first it signals writers to
// flush their queued frames (a rank finishing a collective early must
// not strand its final messages) and grants them a short grace period,
// then it force-closes every connection so parked reader/writer
// goroutines unblock — without the force-close, two nodes closing in
// sequence deadlock waiting on each other's streams. It returns the
// join of the peers' terminal stream errors (nil when every stream
// stayed healthy), so a silently-degraded run is visible at teardown.
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
		if err := pr.lastErr(); err != nil {
			errs = append(errs, err)
		}
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
	pr := &peer{queue: make(chan frame, 65536)}
	n.peers[to] = pr
	n.wg.Add(1)
	n.writers.Add(1)
	go n.writeLoop(to, pr)
	return pr, nil
}

// writeLoop owns one peer stream: it stamps frames with monotonic
// sequence numbers, keeps the resend ring, and transparently redials
// (backoff + jitter) and replays the ring whenever the stream breaks.
func (n *Node) writeLoop(to int, pr *peer) {
	defer n.wg.Done()
	defer n.writers.Done()
	var (
		hdr    [hdrSize]byte
		seq    uint64
		buffer = newRing(n.opts.ResendBuffer)
		conn   net.Conn
		dialed bool     // first connection established at least once
		spare  [][]byte // encode buffers reclaimed from ring evictions
		batch  = newBatcher(n.opts.ResendBuffer, n.opts.MaxBatchBytes, n.opts.Metrics)
	)
	// encode stamps and wire-encodes a queued frame, reusing a reclaimed
	// buffer when one is available and banking the ring's eviction.
	encode := func(f frame) stamped {
		seq++
		var buf []byte
		if len(spare) > 0 {
			buf = spare[len(spare)-1][:0]
			spare = spare[:len(spare)-1]
		}
		s := stamped{seq: seq, tag: f.tag, data: f.p.AppendTo(buf)}
		if evicted := buffer.push(s); evicted != nil && len(spare) < 64 {
			spare = append(spare, evicted)
		}
		n.opts.Metrics.ResendRingHigh.SetMax(int64(buffer.n))
		return s
	}
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

	// connect dials the peer until the budget expires, handshakes, and
	// replays the resend ring (receiver-side dedup makes the replay
	// idempotent). False means budget exhausted or shutting down.
	connect := func(budget time.Duration) bool {
		disconnect()
		deadline := time.Now().Add(budget)
		backoff := 5 * time.Millisecond
		attempts := int64(0)
		for {
			select {
			case <-n.done:
				return false
			default:
			}
			// Check the budget before dialing: time.Until(deadline) at or
			// past the deadline would hand DialTimeout a zero/negative
			// timeout, which means "no timeout" — a spurious unbounded dial
			// instead of a clean budget-exhausted return.
			remain := time.Until(deadline)
			if remain <= 0 {
				n.opts.Metrics.ReconnectRetries.Observe(attempts)
				return false
			}
			n.opts.Metrics.ReconnectAttempts.Inc()
			attempts++
			c, err := net.DialTimeout("tcp", n.addrs[to], remain)
			if err == nil {
				if tc, ok := c.(*net.TCPConn); ok {
					_ = tc.SetNoDelay(!n.opts.EnableNagle)
				}
				binary.LittleEndian.PutUint32(hdr[:4], magic)
				binary.LittleEndian.PutUint32(hdr[4:8], uint32(n.rank))
				if _, werr := c.Write(hdr[:8]); werr == nil &&
					buffer.each(func(s stamped) bool { return writeFrame(c, &hdr, s) }) {
					n.mu.Lock()
					if !n.closed {
						pr.conn = c
					}
					n.mu.Unlock()
					conn = c
					dialed = true
					n.opts.Metrics.Reconnects.Inc()
					n.opts.Metrics.ReconnectRetries.Observe(attempts)
					return true
				}
				_ = c.Close()
			}
			if time.Now().After(deadline) {
				n.opts.Metrics.ReconnectRetries.Observe(attempts)
				return false
			}
			// Exponential backoff with jitter so a rebooting peer is not
			// hammered in lockstep by every survivor, capped so a long
			// outage keeps probing at a steady rate.
			sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
			select {
			case <-n.done:
				return false
			case <-time.After(sleep):
			}
			if backoff < n.opts.MaxReconnectBackoff {
				backoff *= 2
				if backoff > n.opts.MaxReconnectBackoff {
					backoff = n.opts.MaxReconnectBackoff
				}
			}
		}
	}

	// shutdownFlush drains frames still queued at Close time (a rank
	// that finishes a collective early must not strand its last
	// messages). If the stream was never established — Close can win the
	// race against the lazy first dial — it makes one best-effort dial
	// and replays the ring first. The write deadline bounds the flush if
	// the peer has stopped reading; no reconnects during shutdown.
	shutdownFlush := func() {
		if conn == nil {
			c, err := net.DialTimeout("tcp", n.addrs[to], time.Second)
			if err != nil {
				return
			}
			if tc, ok := c.(*net.TCPConn); ok {
				_ = tc.SetNoDelay(!n.opts.EnableNagle)
			}
			_ = c.SetWriteDeadline(time.Now().Add(2 * time.Second))
			binary.LittleEndian.PutUint32(hdr[:4], magic)
			binary.LittleEndian.PutUint32(hdr[4:8], uint32(n.rank))
			conn = c // the deferred disconnect closes it
			if _, werr := c.Write(hdr[:8]); werr != nil {
				return
			}
			if !buffer.each(func(s stamped) bool { return writeFrame(c, &hdr, s) }) {
				return
			}
		}
		_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		for {
			select {
			case f := <-pr.queue:
				if !writeFrame(conn, &hdr, encode(f)) {
					return
				}
			default:
				return
			}
		}
	}

	for {
		select {
		case <-n.done:
			shutdownFlush()
			return
		case f := <-pr.queue:
			// Coalesce: stage the frame in hand, then drain whatever the
			// protocol burst already queued behind it — a scatter or
			// gather layer enqueues all its pieces before the first
			// receive can complete, so the natural flush point (the
			// queue running dry) is the layer boundary. Each stage
			// encodes into the resend ring first, so a mid-batch stream
			// failure loses nothing: the reconnect replays everything.
			batch.stage(encode(f))
		drain:
			for !batch.full() {
				select {
				case f2 := <-pr.queue:
					batch.stage(encode(f2))
				default:
					break drain
				}
			}
			if conn != nil && batch.flush(conn) {
				continue
			}
			batch.nf, batch.bytes = 0, 0 // staged frames live on in the ring
			// Stream broken (or not yet dialed): rebuild it. connect
			// replays the ring, which includes this batch's frames.
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
				// The peer is unreachable (dead machine). Record the
				// loss and park until shutdown, silently dropping
				// traffic; the replication layer is responsible for
				// masking dead peers.
				n.opts.Metrics.StreamsLost.Inc()
				pr.fail(fmt.Errorf("tcpnet: rank %d -> %d stream lost (%s): reconnect budget %v exhausted",
					n.rank, to, n.addrs[to], budget))
				<-n.done
				return
			}
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

// putHeader encodes a frame header — size, tag, CRC32-C payload
// checksum, stream sequence number — into a hdrSize-byte slot. The
// checksum guards against the payload corruption the paper flags as a
// risk of large message counts (§II-A2): a corrupted frame is detected
// and the stream dropped — which triggers the sender's
// reconnect-and-replay instead of silent loss.
//
//kylix:hotpath
func putHeader(h []byte, s stamped) {
	binary.LittleEndian.PutUint32(h[:4], uint32(len(s.data)))
	binary.LittleEndian.PutUint64(h[4:12], uint64(s.tag))
	binary.LittleEndian.PutUint32(h[12:16], crc32.Checksum(s.data, castagnoli))
	binary.LittleEndian.PutUint64(h[16:24], s.seq)
}

// writeFrame sends one frame with two sequential writes. It remains
// the cold-path sender (ring replay after a reconnect, shutdown
// drain); live traffic goes through the batcher's gather writes.
func writeFrame(conn net.Conn, hdr *[hdrSize]byte, s stamped) bool {
	putHeader(hdr[:], s)
	if _, err := conn.Write(hdr[:]); err != nil {
		return false
	}
	_, err := conn.Write(s.data)
	return err == nil
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
// dropping frames already delivered on a previous connection from the
// same sender (sequence-number dedup makes reconnect replays
// idempotent). Sequence 0 marks an unsequenced frame (never deduped),
// kept for protocol-version tolerance in hand-rolled test senders.
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
	// buf is reused across frames (grow-only): DecodePayload copies all
	// referenced bytes into the typed payload, so the raw frame can be
	// overwritten by the next read.
	var buf []byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(hdr[:4])
		if size > maxFrame {
			return
		}
		tag := comm.Tag(binary.LittleEndian.Uint64(hdr[4:12]))
		sum := binary.LittleEndian.Uint32(hdr[12:16])
		seq := binary.LittleEndian.Uint64(hdr[16:24])
		if uint32(cap(buf)) < size {
			buf = make([]byte, size)
		}
		data := buf[:size]
		if _, err := io.ReadFull(conn, data); err != nil {
			return
		}
		if crc32.Checksum(data, castagnoli) != sum {
			// Corrupted frame: drop the stream. Closing the connection
			// surfaces a write error at the sender, whose reconnect
			// replays the resend ring — the frame is redelivered intact
			// instead of silently lost.
			return
		}
		p, err := comm.DecodePayload(data)
		if err != nil {
			return
		}
		n.recvMu.Lock()
		if seq != 0 && seq <= n.recvSeq[from] {
			n.recvMu.Unlock()
			n.opts.Metrics.DedupHits.Inc()
			continue // duplicate redelivery from a replayed ring
		}
		if seq != 0 {
			n.recvSeq[from] = seq
		}
		n.box.Deliver(from, tag, p)
		n.recvMu.Unlock()
	}
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
