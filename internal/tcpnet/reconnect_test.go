package tcpnet

import (
	"encoding/binary"
	"hash/crc32"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/obs"
)

// flakyProxy sits between a sender and a real node's listener,
// forwarding bytes until told to sever every live connection — the
// mid-stream fault the reconnect/replay machinery must absorb — to stop
// forwarding while keeping the connections open (a receiver that stopped
// reading), or to drop off the network altogether (a stream held down).
type flakyProxy struct {
	backend string

	mu     sync.Mutex
	gate   sync.Cond // forwarders wait here while paused
	ln     net.Listener
	conns  []net.Conn
	down   bool
	paused bool
}

func newFlakyProxy(t *testing.T, backend string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, backend: backend}
	p.gate.L = &p.mu
	go p.acceptLoop(ln)
	t.Cleanup(p.close)
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) acceptLoop(ln net.Listener) {
	for {
		in, err := ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.down {
			p.mu.Unlock()
			_ = in.Close()
			continue
		}
		out, err := net.Dial("tcp", p.backend)
		if err != nil {
			p.mu.Unlock()
			_ = in.Close()
			continue
		}
		p.conns = append(p.conns, in, out)
		p.mu.Unlock()
		go p.forward(out, in)
		go p.forward(in, out)
	}
}

// forward copies src to dst until either side fails, holding the bytes
// it has read for as long as the proxy is paused.
func (p *flakyProxy) forward(dst, src net.Conn) {
	defer dst.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		p.mu.Lock()
		for p.paused && !p.down {
			p.gate.Wait()
		}
		p.mu.Unlock()
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// breakNow severs every live connection. New connections keep working.
func (p *flakyProxy) breakNow() {
	p.mu.Lock()
	for _, c := range p.conns {
		_ = c.Close()
	}
	p.conns = nil
	p.mu.Unlock()
}

// pause stops (or resumes) forwarding; connections stay open.
func (p *flakyProxy) pause(on bool) {
	p.mu.Lock()
	p.paused = on
	p.mu.Unlock()
	p.gate.Broadcast()
}

// hold takes the proxy off the network: live connections are severed
// and dials refused until resume listens on the same address again.
func (p *flakyProxy) hold() {
	_ = p.ln.Close()
	p.breakNow()
}

func (p *flakyProxy) resume(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", p.addr())
	if err != nil {
		t.Fatal(err)
	}
	p.ln = ln
	go p.acceptLoop(ln)
}

func (p *flakyProxy) close() {
	p.mu.Lock()
	p.down = true
	p.mu.Unlock()
	p.gate.Broadcast()
	_ = p.ln.Close()
	p.breakNow()
}

// waitFor polls until cond holds; the test fails if it never does.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSendCopiesPayloadBeforeReturning is the regression test for the
// stale-reference bug: a frame used to wait for its stream as a bare
// payload reference, so when §V racing let the rank run ahead on the
// other replica's copies the arena refilled the buffer and the reconnect
// shipped round-N+2 values in a round-N frame — silent replica
// divergence. A frame must carry the values it was sent with.
func TestSendCopiesPayloadBeforeReturning(t *testing.T) {
	recv, err := Listen(1, []string{"127.0.0.1:0", "127.0.0.1:0"}, Options{RecvTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	proxy := newFlakyProxy(t, recv.Addr())
	proxy.hold()
	m := obs.NewTransportMetrics(nil)
	send, err := Listen(0, []string{"127.0.0.1:0", proxy.addr()}, Options{RecvTimeout: 10 * time.Second, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	if err := send.Send(1, comm.MakeTag(comm.KindApp, 0, 0), &comm.Floats{Vals: []float32{0}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the writer to be redialing a refused stream", func() bool { return m.ReconnectAttempts.Value() >= 2 })
	vals := []float32{1, 2, 3, 4}
	tag := comm.MakeTag(comm.KindApp, 0, 1)
	if err := send.Send(1, tag, &comm.Floats{Vals: vals}); err != nil {
		t.Fatal(err)
	}
	for i := range vals { // the arena refilling its buffer two rounds later
		vals[i] = -1
	}
	proxy.resume(t)
	p, err := recv.Recv(0, tag)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range p.(*comm.Floats).Vals {
		if v != float32(i+1) {
			t.Fatalf("received %v, sent [1 2 3 4]: the frame shipped the caller's later values", p.(*comm.Floats).Vals)
		}
	}
}

// TestReconnectRedeliversAcrossBreaks is the transport-hardening
// centrepiece: a stream severed twice mid-burst must lose nothing and
// duplicate nothing — the writer reconnects and replays its un-acked window, the
// receiver dedups by sequence number.
func TestReconnectRedeliversAcrossBreaks(t *testing.T) {
	recv, err := Listen(1, []string{"127.0.0.1:0", "127.0.0.1:0"}, Options{RecvTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	proxy := newFlakyProxy(t, recv.Addr())
	send, err := Listen(0, []string{"127.0.0.1:0", proxy.addr()}, Options{
		RecvTimeout:      10 * time.Second,
		ReconnectTimeout: 8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	const total = 150
	for i := 0; i < total; i++ {
		tag := comm.MakeTag(comm.KindApp, 0, uint32(i))
		if err := send.Send(1, tag, &comm.Floats{Vals: []float32{float32(i)}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if i == total/3 || i == 2*total/3 {
			// Let some frames reach the wire, then cut it mid-burst.
			time.Sleep(10 * time.Millisecond)
			proxy.breakNow()
			time.Sleep(20 * time.Millisecond) // let the RST land so the next write fails
		}
	}

	for i := 0; i < total; i++ {
		tag := comm.MakeTag(comm.KindApp, 0, uint32(i))
		p, err := recv.Recv(0, tag)
		if err != nil {
			t.Fatalf("frame %d never redelivered: %v", i, err)
		}
		if got := p.(*comm.Floats).Vals[0]; got != float32(i) {
			t.Fatalf("frame %d: payload %v", i, got)
		}
	}
	// Replay duplicates must have been deduped before the mailbox, and
	// any straggler replay is <= the max delivered seq, so nothing else
	// may show up.
	time.Sleep(50 * time.Millisecond)
	if n := recv.box.Pending(); n != 0 {
		t.Fatalf("%d duplicate frames reached the mailbox", n)
	}
}

// TestReceiverDedupBySequence drives the receiver directly with a
// hand-rolled stream: replayed sequence numbers are dropped, seq 0
// (unsequenced) frames always pass.
func TestReceiverDedupBySequence(t *testing.T) {
	recv, err := Listen(1, []string{"127.0.0.1:0", "127.0.0.1:0"}, Options{RecvTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var hs [8]byte
	binary.LittleEndian.PutUint32(hs[:4], magic)
	binary.LittleEndian.PutUint32(hs[4:8], 0)
	if _, err := conn.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	writeSeq := func(seq uint64, tagSeq uint32, val float32) {
		t.Helper()
		data := (&comm.Floats{Vals: []float32{val}}).AppendTo(nil)
		var hdr [hdrSize]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(data)))
		binary.LittleEndian.PutUint64(hdr[4:12], uint64(comm.MakeTag(comm.KindApp, 0, tagSeq)))
		binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(data, castagnoli))
		binary.LittleEndian.PutUint64(hdr[16:24], seq)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
	}

	writeSeq(1, 0, 10) // delivered
	writeSeq(1, 0, 11) // replay of seq 1: dropped
	writeSeq(2, 1, 12) // delivered
	writeSeq(2, 1, 13) // replay of seq 2: dropped
	writeSeq(0, 2, 14) // unsequenced: delivered
	writeSeq(0, 2, 15) // unsequenced: delivered again

	if p, err := recv.Recv(0, comm.MakeTag(comm.KindApp, 0, 0)); err != nil || p.(*comm.Floats).Vals[0] != 10 {
		t.Fatalf("seq 1 first copy: %v %v", p, err)
	}
	if p, err := recv.Recv(0, comm.MakeTag(comm.KindApp, 0, 1)); err != nil || p.(*comm.Floats).Vals[0] != 12 {
		t.Fatalf("seq 2 first copy: %v %v", p, err)
	}
	if p, err := recv.Recv(0, comm.MakeTag(comm.KindApp, 0, 2)); err != nil || p.(*comm.Floats).Vals[0] != 14 {
		t.Fatalf("unsequenced 1st: %v %v", p, err)
	}
	if p, err := recv.Recv(0, comm.MakeTag(comm.KindApp, 0, 2)); err != nil || p.(*comm.Floats).Vals[0] != 15 {
		t.Fatalf("unsequenced 2nd: %v %v", p, err)
	}
	time.Sleep(30 * time.Millisecond)
	if n := recv.box.Pending(); n != 0 {
		t.Fatalf("%d deduped frames leaked into the mailbox", n)
	}
}

// deadAddr returns a loopback address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestPeerErrorSurfacesOnClose: a terminally lost stream no longer
// disappears into peer.err — Close reports it.
func TestPeerErrorSurfacesOnClose(t *testing.T) {
	n, err := Listen(0, []string{"127.0.0.1:0", deadAddr(t)}, Options{
		DialTimeout:      200 * time.Millisecond,
		ReconnectTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, comm.MakeTag(comm.KindApp, 0, 0), &comm.Bytes{Data: []byte("x")}); err != nil {
		t.Fatalf("async send should not fail inline: %v", err)
	}
	time.Sleep(time.Second) // let the dial budget expire and the error stick
	cerr := n.Close()
	if cerr == nil {
		t.Fatal("Close swallowed the dead-peer stream error")
	}
	if !strings.Contains(cerr.Error(), "stream lost") {
		t.Fatalf("Close error lacks stream context: %v", cerr)
	}
}

// TestFailFastSurfacesPeerErrorOnSend: with FailFast, Send itself
// reports the sticky stream error once the reconnect budget is gone.
func TestFailFastSurfacesPeerErrorOnSend(t *testing.T) {
	n, err := Listen(0, []string{"127.0.0.1:0", deadAddr(t)}, Options{
		DialTimeout:      150 * time.Millisecond,
		ReconnectTimeout: 150 * time.Millisecond,
		FailFast:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	tag := comm.MakeTag(comm.KindApp, 0, 0)
	if err := n.Send(1, tag, &comm.Bytes{Data: []byte("x")}); err != nil {
		t.Fatalf("first send should enqueue cleanly: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := n.Send(1, tag, &comm.Bytes{Data: []byte("y")})
		if err != nil {
			if !strings.Contains(err.Error(), "stream lost") {
				t.Fatalf("FailFast send error lacks stream context: %v", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("FailFast send never surfaced the dead-peer error")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHealthyClusterCloseReportsNoError: the sticky-error path must not
// produce false positives on a clean run.
func TestHealthyClusterCloseReportsNoError(t *testing.T) {
	nodes, err := LocalCluster(2, Options{RecvTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tag := comm.MakeTag(comm.KindApp, 0, 7)
	if err := nodes[0].Send(1, tag, &comm.Bytes{Data: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[1].Recv(0, tag); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatalf("healthy close returned %v", err)
		}
	}
}

// TestReconnectBackoffCapAndRetryMetric pins the bounded-backoff
// contract: against a peer that is gone for good, the dial loop keeps
// probing at the capped rate until the budget expires, and the attempt
// count of the outage lands in the ReconnectRetries histogram — an
// endless-reconnect loop is visible and bounded, not silent and
// unbounded.
func TestReconnectBackoffCapAndRetryMetric(t *testing.T) {
	reg := obs.NewRegistry()
	tm := obs.NewTransportMetrics(reg)
	addrs := []string{"127.0.0.1:0", "127.0.0.1:1"} // port 1: nothing listens
	n, err := Listen(0, addrs, Options{
		DialTimeout:         500 * time.Millisecond,
		MaxReconnectBackoff: 10 * time.Millisecond,
		RecvTimeout:         time.Second,
		Metrics:             tm,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Send(1, comm.MakeTag(comm.KindApp, 0, 0), &comm.Bytes{Data: []byte("void")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tm.StreamsLost.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never declared lost")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := tm.ReconnectRetries.Count(); got < 1 {
		t.Fatalf("ReconnectRetries recorded %d outages, want >= 1", got)
	}
	// With the backoff capped at 10ms over a 500ms budget, the loop must
	// have kept probing — an uncapped doubling schedule would sleep most
	// of the budget away in two or three waits.
	if got := tm.ReconnectRetries.Max(); got < 10 {
		t.Fatalf("outage cost %d dial attempts, want >= 10 (backoff cap not applied?)", got)
	}
}
