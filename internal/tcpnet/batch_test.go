package tcpnet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/obs"
)

// sinkConn is a net.Conn that records writes; reads report EOF.
type sinkConn struct{ buf bytes.Buffer }

func (c *sinkConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *sinkConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (c *sinkConn) Close() error                     { return nil }
func (c *sinkConn) LocalAddr() net.Addr              { return nil }
func (c *sinkConn) RemoteAddr() net.Addr             { return nil }
func (c *sinkConn) SetDeadline(time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// testFrame builds a window frame by hand: header (ack left zero) and
// payload bytes in one buffer, as push lays them out.
func testFrame(seq uint64, tag comm.Tag, data string) []byte {
	f := append(make([]byte, hdrSize), data...)
	putHeader(f, tag, seq)
	return f
}

func TestBatcherGatherWritesFrames(t *testing.T) {
	m := obs.NewTransportMetrics(nil)
	b := newBatcher(1<<20, m)
	frames := []struct {
		seq  uint64
		tag  comm.Tag
		data string
	}{
		{1, comm.MakeTag(comm.KindApp, 0, 0), "alpha"},
		{2, comm.MakeTag(comm.KindApp, 0, 1), "b"},
		{3, comm.MakeTag(comm.KindApp, 1, 2), "gamma-long-payload"},
	}
	const ack = 77
	for _, f := range frames {
		b.stage(testFrame(f.seq, f.tag, f.data), ack)
	}
	sink := &sinkConn{}
	if !b.flush(sink, len(frames)) {
		t.Fatal("flush failed on healthy conn")
	}
	if b.nf != 0 || b.bytes != 0 {
		t.Fatal("flush did not reset the batch")
	}
	// The wire bytes must parse back as the exact frame sequence.
	r := bytes.NewReader(sink.buf.Bytes())
	for i, want := range frames {
		var hdr [hdrSize]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			t.Fatalf("frame %d header: %v", i, err)
		}
		size := binary.LittleEndian.Uint32(hdr[:4])
		tag := comm.Tag(binary.LittleEndian.Uint64(hdr[4:12]))
		crc := binary.LittleEndian.Uint32(hdr[12:16])
		seq := binary.LittleEndian.Uint64(hdr[16:24])
		if int(size) != len(want.data) || tag != want.tag || seq != want.seq {
			t.Fatalf("frame %d header mismatch: size=%d tag=%v seq=%d", i, size, tag, seq)
		}
		if got := binary.LittleEndian.Uint64(hdr[24:32]); got != ack {
			t.Fatalf("frame %d carries ack %d, want %d", i, got, ack)
		}
		data := make([]byte, size)
		if _, err := io.ReadFull(r, data); err != nil {
			t.Fatalf("frame %d payload: %v", i, err)
		}
		if string(data) != want.data || crc != crc32.Checksum(data, castagnoli) {
			t.Fatalf("frame %d payload corrupted", i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after last frame", r.Len())
	}
	if got := m.WritevCalls.Value(); got != 1 {
		t.Fatalf("WritevCalls = %d, want 1", got)
	}
	if got := m.FramesSent.Value(); got != 3 {
		t.Fatalf("FramesSent = %d, want 3", got)
	}
	if got := m.FramesBatched.Value(); got != 3 {
		t.Fatalf("FramesBatched = %d, want 3", got)
	}

	// A single-frame batch counts the syscall and the frame but is not
	// "batched"; an empty flush counts nothing; a replayed frame (fresh 0)
	// and a bare ack cost a syscall and are not "sent".
	b.stage(testFrame(4, frames[0].tag, "solo"), ack)
	if !b.flush(sink, 1) || !b.flush(sink, 0) {
		t.Fatal("flush failed")
	}
	if got := m.FramesBatched.Value(); got != 3 {
		t.Fatalf("solo frame counted as batched: FramesBatched = %d", got)
	}
	if got, want := m.WritevCalls.Value(), int64(2); got != want {
		t.Fatalf("WritevCalls = %d, want %d (empty flush must not count)", got, want)
	}
	b.stage(testFrame(4, frames[0].tag, "solo"), ack)
	b.flush(sink, 0)
	b.stage(b.bare[:], ack)
	b.flush(sink, 0)
	if sent, writev := m.FramesSent.Value(), m.WritevCalls.Value(); sent != 4 || writev != 4 {
		t.Fatalf("after a replay and a bare ack: FramesSent = %d (want 4), WritevCalls = %d (want 4)", sent, writev)
	}
}

func TestBatcherCapacityClamps(t *testing.T) {
	m := obs.NewTransportMetrics(nil)
	// Frame cap: one iovec a frame, closed at maxBatchFrames.
	b := newBatcher(1<<20, m)
	for i := 1; i < maxBatchFrames; i++ {
		b.stage(testFrame(uint64(i), 0, "x"), 0)
	}
	if b.full() {
		t.Fatalf("full after %d of %d frames", maxBatchFrames-1, maxBatchFrames)
	}
	b.stage(testFrame(maxBatchFrames, 0, "y"), 0)
	if !b.full() {
		t.Fatal("not full at maxBatchFrames")
	}

	// Byte cap: MaxBatchBytes 1 closes the batch at the first frame.
	b2 := newBatcher(1, m)
	b2.stage(testFrame(1, 0, "payload"), 0)
	if !b2.full() {
		t.Fatal("not full past MaxBatchBytes")
	}
}

func TestWireCoalescingCountsBatches(t *testing.T) {
	m := obs.NewTransportMetrics(nil)
	nodes := testCluster(t, 2, Options{Metrics: m})
	// Establish the stream so the bursts below are the only traffic in
	// flight.
	warm := comm.MakeTag(comm.KindApp, 0, 0)
	if err := nodes[0].Send(1, warm, &comm.Bytes{Data: []byte("warm")}); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[1].Recv(0, warm); err != nil {
		t.Fatal(err)
	}
	// A burst outruns the writer's writev syscalls, so some drain pass
	// must pick up >1 queued frame. Retry bursts to make the assertion
	// robust to scheduling, though one burst nearly always suffices.
	round := uint32(1)
	for attempt := 0; attempt < 50 && m.FramesBatched.Value() == 0; attempt++ {
		const burst = 200
		for i := 0; i < burst; i++ {
			tag := comm.MakeTag(comm.KindApp, 0, round)
			round++
			if err := nodes[0].Send(1, tag, &comm.Floats{Vals: []float32{float32(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint32(round - burst); i < round; i++ {
			if _, err := nodes[1].Recv(0, comm.MakeTag(comm.KindApp, 0, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sent, writev, batched := m.FramesSent.Value(), m.WritevCalls.Value(), m.FramesBatched.Value()
	if batched == 0 {
		t.Fatalf("no multi-frame batch in 50 bursts (sent=%d writev=%d)", sent, writev)
	}
	if writev >= sent {
		t.Fatalf("WritevCalls %d >= FramesSent %d: coalescing saved no syscalls", writev, sent)
	}
	if batched > sent {
		t.Fatalf("FramesBatched %d > FramesSent %d", batched, sent)
	}
}

func TestMaxBatchBytesOneDisablesCoalescing(t *testing.T) {
	m := obs.NewTransportMetrics(nil)
	nodes := testCluster(t, 2, Options{Metrics: m, MaxBatchBytes: 1})
	const count = 100
	for i := 0; i < count; i++ {
		tag := comm.MakeTag(comm.KindApp, 0, uint32(i))
		if err := nodes[0].Send(1, tag, &comm.Floats{Vals: []float32{float32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		p, err := nodes[1].Recv(0, comm.MakeTag(comm.KindApp, 0, uint32(i)))
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if p.(*comm.Floats).Vals[0] != float32(i) {
			t.Fatalf("msg %d corrupted", i)
		}
	}
	if got := m.FramesBatched.Value(); got != 0 {
		t.Fatalf("FramesBatched = %d with MaxBatchBytes 1, want 0", got)
	}
	if sent, writev := m.FramesSent.Value(), m.WritevCalls.Value(); sent != writev {
		t.Fatalf("FramesSent %d != WritevCalls %d: unbatched frames must go 1:1", sent, writev)
	}
}

func TestNagleOptionStillDelivers(t *testing.T) {
	nodes := testCluster(t, 2, Options{EnableNagle: true})
	tag := comm.MakeTag(comm.KindApp, 0, 3)
	if err := nodes[0].Send(1, tag, &comm.Bytes{Data: []byte("nagle on")}); err != nil {
		t.Fatal(err)
	}
	p, err := nodes[1].Recv(0, tag)
	if err != nil || string(p.(*comm.Bytes).Data) != "nagle on" {
		t.Fatalf("delivery with Nagle enabled broken: %v %v", p, err)
	}
}

// BenchmarkFrameBatching measures the live frames-per-writev ratio over
// real loopback TCP: bursts of small layer-piece-sized frames, the Fig 2
// small-packet regime the batching writer exists for.
func BenchmarkFrameBatching(b *testing.B) {
	m := obs.NewTransportMetrics(nil)
	nodes, err := LocalCluster(2, Options{Metrics: m})
	if err != nil {
		b.Fatal(err)
	}
	defer CloseAll(nodes)
	vals := make([]float32, 64) // a 256-byte piece: deep-layer sized
	warm := comm.MakeTag(comm.KindApp, 0, 0)
	if err := nodes[0].Send(1, warm, &comm.Floats{Vals: vals}); err != nil {
		b.Fatal(err)
	}
	if _, err := nodes[1].Recv(0, warm); err != nil {
		b.Fatal(err)
	}
	round := uint32(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		const burst = 64
		for j := 0; j < burst; j++ {
			tag := comm.MakeTag(comm.KindApp, 0, round)
			round++
			if err := nodes[0].Send(1, tag, &comm.Floats{Vals: vals}); err != nil {
				b.Fatal(err)
			}
		}
		for j := uint32(round - burst); j < round; j++ {
			if _, err := nodes[1].Recv(0, comm.MakeTag(comm.KindApp, 0, j)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	writev := m.WritevCalls.Value()
	if writev == 0 {
		writev = 1
	}
	b.ReportMetric(float64(m.FramesSent.Value())/float64(writev), "frames/writev")
}
