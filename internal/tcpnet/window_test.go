package tcpnet

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/obs"
)

// proxied wires a sender (rank 0) to a receiver (rank 1) through a
// flakyProxy; the receiver's acks travel on its own, direct, stream.
func proxied(t *testing.T, sendOpts, recvOpts Options) (send, recv *Node, proxy *flakyProxy) {
	t.Helper()
	recv, err := Listen(1, []string{"127.0.0.1:0", "127.0.0.1:0"}, recvOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = recv.Close() })
	proxy = newFlakyProxy(t, recv.Addr())
	send, err = Listen(0, []string{"127.0.0.1:0", proxy.addr()}, sendOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = send.Close() })
	recv.addrs[0] = send.Addr()
	return send, recv, proxy
}

// window reads a peer's window occupancy: frames held and their bytes.
func (n *Node) window(to int) (frames, bytes int) {
	n.mu.Lock()
	pr := n.peers[to]
	n.mu.Unlock()
	if pr == nil {
		return 0, 0
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return len(pr.frames), pr.bytes
}

// One tag for a whole stream: the mailbox queue of one (sender, tag) is
// FIFO, so receiving index i at position i proves exactly-once delivery
// in order — a duplicate repeats an index, a loss skips one.
var streamTag = comm.MakeTag(comm.KindApp, 0, 1)

func recvIndexed(t *testing.T, recv *Node, i int) {
	t.Helper()
	p, err := recv.Recv(0, streamTag)
	if err != nil {
		t.Fatalf("frame %d: %v", i, err)
	}
	if got := p.(*comm.Floats).Vals[0]; got != float32(i) {
		t.Fatalf("position %d delivered frame %v: lost, duplicated or reordered", i, got)
	}
}

// TestWindowReplaysExactlyOnceAcrossBreaks: a stream severed every
// thousand frames of a long mixed-size run delivers each frame exactly
// once, in order, out of a window that never outgrows its bound.
func TestWindowReplaysExactlyOnceAcrossBreaks(t *testing.T) {
	total, every := 10000, 997
	if testing.Short() {
		total, every = 2500, 499
	}
	m := obs.NewTransportMetrics(nil)
	recvM := obs.NewTransportMetrics(nil)
	send, recv, proxy := proxied(t, Options{RecvTimeout: 20 * time.Second, Metrics: m}, Options{RecvTimeout: 20 * time.Second, Metrics: recvM})
	sizes := []int{1, 50, 500, 5000} // floats: 9 B to 20 KB payloads
	errc := make(chan error, 1)
	go func() {
		bufs := make([][]float32, len(sizes))
		for i, n := range sizes {
			bufs[i] = make([]float32, n)
		}
		for i := 0; i < total; i++ {
			vals := bufs[i%len(sizes)]
			vals[0] = float32(i) // reused as soon as Send returns
			if err := send.Send(1, streamTag, &comm.Floats{Vals: vals}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < total; i++ {
		recvIndexed(t, recv, i)
		if i%every == every-1 {
			proxy.breakNow()
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if n := recv.box.Pending(); n != 0 {
		t.Fatalf("%d duplicate frames reached the mailbox", n)
	}
	if recvM.DedupHits.Value() == 0 {
		t.Fatal("no replayed frame was deduplicated: the breaks never cost a replay")
	}
	bound := int64(windowBound(hdrSize + (&comm.Floats{Vals: make([]float32, 5000)}).WireSize()))
	if high := m.WindowBytesHigh.Value(); high > bound {
		t.Fatalf("window high-water %d bytes over its bound %d", high, bound)
	}
	t.Logf("reconnects=%d dedup=%d blocked=%d high=%d", m.Reconnects.Value(), recvM.DedupHits.Value(), m.SendBlocked.Value(), m.WindowBytesHigh.Value())
}

// TestOneWayTrafficIsAckedBare: a peer that never sends still frees the
// sender's window — by header-only acks — while symmetric traffic acks
// itself in the headers it sends anyway and costs no extra syscall.
func TestOneWayTrafficIsAckedBare(t *testing.T) {
	total := 64 << 20
	if testing.Short() {
		total = 8 << 20
	}
	const frame = 4 << 10
	m := obs.NewTransportMetrics(nil)
	nodes := testCluster(t, 2, Options{Metrics: m, RecvTimeout: 20 * time.Second})
	errc := make(chan error, 1)
	go func() {
		vals := make([]float32, frame/4)
		for i := 0; i < total/frame; i++ {
			vals[0] = float32(i)
			if err := nodes[0].Send(1, streamTag, &comm.Floats{Vals: vals}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < total/frame; i++ {
		recvIndexed(t, nodes[1], i)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if high := m.WindowBytesHigh.Value(); high > windowFloor {
		t.Fatalf("window high-water %d bytes over its bound %d", high, windowFloor)
	}
	if m.AcksBare.Value() == 0 {
		t.Fatal("one-way traffic drew no bare ack")
	}
	// The tail is under the bare-ack threshold; the idle writer's probe
	// asks for its ack.
	waitFor(t, "the last frames to be acknowledged", func() bool { f, _ := nodes[0].window(1); return f == 0 })

	pm := obs.NewTransportMetrics(nil)
	pair := testCluster(t, 2, Options{Metrics: pm})
	ball := &comm.Floats{Vals: make([]float32, frame/4)}
	for i := 0; i < 1000; i++ {
		tag := comm.MakeTag(comm.KindApp, 0, uint32(i))
		if err := pair[0].Send(1, tag, ball); err != nil {
			t.Fatal(err)
		}
		if _, err := pair[1].Recv(0, tag); err != nil {
			t.Fatal(err)
		}
		if err := pair[1].Send(0, tag, ball); err != nil {
			t.Fatal(err)
		}
		if _, err := pair[0].Recv(1, tag); err != nil {
			t.Fatal(err)
		}
	}
	if bare := pm.AcksBare.Value(); bare != 0 {
		t.Fatalf("symmetric ping-pong emitted %d bare acks", bare)
	}
	if sent, writev := pm.FramesSent.Value(), pm.WritevCalls.Value(); sent != 2000 || writev > sent {
		t.Fatalf("ping-pong: %d frames in %d writev calls, want 2000 frames and no more calls than frames", sent, writev)
	}
	waitFor(t, "the reverse traffic to have carried the acks", func() bool { f, _ := pair[0].window(1); return f == 0 })
}

// TestSendBlocksAtTheBound: when the receiver stops reading, Send stops
// admitting at the window's bound — backpressure, not growth — and ends
// with the structured timeout, or with ErrClosed as soon as the node
// closes.
func TestSendBlocksAtTheBound(t *testing.T) {
	fill := func(send *Node) error {
		p := &comm.Floats{Vals: make([]float32, 1<<10)}
		for {
			if err := send.Send(1, streamTag, p); err != nil {
				return err
			}
		}
	}
	t.Run("timeout", func(t *testing.T) {
		m := obs.NewTransportMetrics(nil)
		send, _, proxy := proxied(t, Options{RecvTimeout: 300 * time.Millisecond, Metrics: m}, Options{})
		proxy.pause(true)
		err := fill(send)
		var terr *comm.TimeoutError
		if !errors.As(err, &terr) || !errors.Is(err, comm.ErrTimeout) {
			t.Fatalf("blocked Send ended with %v, want a wrapped *comm.TimeoutError", err)
		}
		if len(terr.From) != 1 || terr.From[0] != 1 || terr.Tag != streamTag || terr.Elapsed < 300*time.Millisecond ||
			!strings.Contains(err.Error(), "bytes un-acked") {
			t.Fatalf("timeout error lacks context: %v", err)
		}
		if _, bytes := send.window(1); bytes > windowFloor || m.WindowBytesHigh.Value() > windowFloor {
			t.Fatalf("window grew to %d bytes (high-water %d) past its bound %d", bytes, m.WindowBytesHigh.Value(), windowFloor)
		}
		if m.SendBlocked.Value() == 0 {
			t.Fatal("SendBlocked did not count the wait")
		}
	})
	t.Run("close", func(t *testing.T) {
		m := obs.NewTransportMetrics(nil)
		send, _, proxy := proxied(t, Options{RecvTimeout: time.Minute, Metrics: m}, Options{})
		proxy.pause(true)
		errc := make(chan error, 1)
		go func() { errc <- fill(send) }()
		waitFor(t, "a Send to block on the full window", func() bool { return m.SendBlocked.Value() > 0 })
		start := time.Now()
		_ = send.Close()
		select {
		case err := <-errc:
			if !errors.Is(err, comm.ErrClosed) {
				t.Fatalf("blocked Send ended with %v after Close, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close left the blocked Send parked")
		}
		if took := time.Since(start); took > 4*time.Second {
			t.Fatalf("Close took %v with a full window: it must not wait for acks", took)
		}
	})
}

// TestOversizedFrameIsAdmitted: the floor is not a frame-size limit — a
// frame far beyond it enters the (empty) window without waiting.
func TestOversizedFrameIsAdmitted(t *testing.T) {
	m := obs.NewTransportMetrics(nil)
	nodes := testCluster(t, 2, Options{Metrics: m})
	big := &comm.Bytes{Data: make([]byte, 8*windowFloor)}
	big.Data[len(big.Data)-1] = 7
	if err := nodes[0].Send(1, streamTag, big); err != nil {
		t.Fatal(err)
	}
	p, err := nodes[1].Recv(0, streamTag)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.(*comm.Bytes).Data; len(got) != len(big.Data) || got[len(got)-1] != 7 {
		t.Fatal("oversized frame corrupted")
	}
	if m.SendBlocked.Value() != 0 {
		t.Fatal("an empty window made the oversized frame wait")
	}
}

// rawPeer plays rank 1 by hand against a real node at rank 0: it reads
// the node's stream frame by frame and can write anything back.
type rawPeer struct {
	node *Node
	in   net.Conn // the node's stream toward us
	out  net.Conn // ours toward the node
	hdr  [hdrSize]byte
	bare [hdrSize]byte
	buf  []byte
}

func newRawPeer(t *testing.T, opts Options) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	node, err := Listen(0, []string{"127.0.0.1:0", ln.Addr().String()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	rp := &rawPeer{node: node, buf: make([]byte, 64<<10)}
	// The first Send makes the node dial us.
	if err := node.Send(1, streamTag, &comm.Bytes{Data: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	if rp.in, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	if rp.out, err = net.Dial("tcp", node.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rp.in.Close(); _ = rp.out.Close() })
	var hs [8]byte
	if _, err := io.ReadFull(rp.in, hs[:]); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(hs[:4], magic)
	binary.LittleEndian.PutUint32(hs[4:], 1)
	if _, err := rp.out.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	if seq, err := rp.read(); err != nil || seq != 1 {
		t.Fatalf("first frame: seq %d, %v", seq, err)
	}
	return rp
}

// read consumes one frame of the node's stream and returns its sequence.
func (rp *rawPeer) read() (uint64, error) {
	if _, err := io.ReadFull(rp.in, rp.hdr[:]); err != nil {
		return 0, err
	}
	size := binary.LittleEndian.Uint32(rp.hdr[:4])
	_, err := io.ReadFull(rp.in, rp.buf[:size])
	return binary.LittleEndian.Uint64(rp.hdr[16:24]), err
}

// ack writes a bare ack frame to the node.
func (rp *rawPeer) ack(seq uint64) error {
	binary.LittleEndian.PutUint64(rp.bare[24:], seq)
	_, err := rp.out.Write(rp.bare[:])
	return err
}

// sync returns once the node has processed everything written so far: a
// marker frame follows it through the same reader.
func (rp *rawPeer) sync(t *testing.T, round uint32) {
	t.Helper()
	tag := comm.MakeTag(comm.KindApp, 9, round)
	if _, err := rp.out.Write(testFrame(0, tag, string((&comm.Bytes{}).AppendTo(nil)))); err != nil {
		t.Fatal(err)
	}
	if _, err := rp.node.Recv(1, tag); err != nil {
		t.Fatal(err)
	}
}

// TestForgedAcksFreeNothing: an ack above the highest sequence sent, or
// one that regresses, neither trims the window nor disturbs the acks
// that follow.
func TestForgedAcksFreeNothing(t *testing.T) {
	rp := newRawPeer(t, Options{RecvTimeout: 5 * time.Second})
	for i := 0; i < 3; i++ { // sequences 2..4
		if err := rp.node.Send(1, streamTag, &comm.Bytes{Data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		if seq, err := rp.read(); err != nil || seq != uint64(i+2) {
			t.Fatalf("frame %d: seq %d, %v", i, seq, err)
		}
	}
	held := func() int { f, _ := rp.node.window(1); return f }
	steps := []struct {
		ack  uint64
		want int
		why  string
	}{
		{1 << 40, 4, "an ack above the highest sequence sent freed frames"},
		{5, 4, "an ack one past the highest sequence sent freed frames"},
		{2, 2, "a valid ack after forged ones was not applied"},
		{1, 2, "a regressing ack moved the window"},
		{0, 2, "a zero ack moved the window"},
		{4, 0, "the final ack did not empty the window"},
	}
	for i, s := range steps {
		if err := rp.ack(s.ack); err != nil {
			t.Fatal(err)
		}
		rp.sync(t, uint32(i))
		// The writer trims what an ack overtook its writev return for.
		waitFor(t, s.why, func() bool { return held() <= s.want })
		if got := held(); got != s.want {
			t.Fatalf("%s: window holds %d frames, want %d", s.why, got, s.want)
		}
	}
}

// TestSteadyStateSendAllocatesNothing: once the window has turned over,
// a Send encodes into a buffer an ack gave back.
func TestSteadyStateSendAllocatesNothing(t *testing.T) {
	rp := newRawPeer(t, Options{RecvTimeout: 5 * time.Second})
	if err := rp.ack(1); err != nil {
		t.Fatal(err)
	}
	go func() { // acknowledge every frame as it lands
		for {
			seq, err := rp.read()
			if err != nil || rp.ack(seq) != nil {
				return
			}
		}
	}()
	p := &comm.Floats{Vals: make([]float32, 2048)}
	send := func() {
		if err := rp.node.Send(1, streamTag, p); err != nil {
			t.Error(err)
		}
		// Poll for the ack asleep, not spinning: AllocsPerRun runs on one
		// P, which must go idle for the netpoller to be consulted promptly.
		for f, _ := rp.node.window(1); f != 0; f, _ = rp.node.window(1) {
			time.Sleep(10 * time.Microsecond)
		}
	}
	for i := 0; i < 100; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(500, send); avg != 0 {
		t.Fatalf("steady-state Send allocates %v times per call, want 0", avg)
	}
}
