package tcpnet

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"net"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/obs"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

func testCluster(t *testing.T, m int, opts Options) []*Node {
	t.Helper()
	nodes, err := LocalCluster(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseAll(nodes) })
	return nodes
}

func TestPointToPointOverTCP(t *testing.T) {
	nodes := testCluster(t, 2, Options{})
	tag := comm.MakeTag(comm.KindApp, 0, 0)
	if err := nodes[0].Send(1, tag, &comm.Bytes{Data: []byte("over tcp")}); err != nil {
		t.Fatal(err)
	}
	p, err := nodes[1].Recv(0, tag)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.(*comm.Bytes).Data) != "over tcp" {
		t.Fatal("payload corrupted")
	}
}

func TestSelfSendLoopback(t *testing.T) {
	nodes := testCluster(t, 1, Options{})
	tag := comm.MakeTag(comm.KindApp, 0, 1)
	if err := nodes[0].Send(0, tag, &comm.Floats{Vals: []float32{42}}); err != nil {
		t.Fatal(err)
	}
	p, err := nodes[0].Recv(0, tag)
	if err != nil || p.(*comm.Floats).Vals[0] != 42 {
		t.Fatalf("loopback broken: %v %v", p, err)
	}
}

func TestAllPayloadTypesSurviveWire(t *testing.T) {
	nodes := testCluster(t, 2, Options{})
	keys := sparse.MustNewSet([]int32{3, 1, 4, 159})
	payloads := []comm.Payload{
		&comm.ConfigPiece{In: keys},
		&comm.Floats{Vals: []float32{2.5, -1}},
		&comm.KeysVals{Keys: keys, Vals: []float32{1, 2, 3, 4}},
		&comm.Bytes{Data: []byte{0, 255, 7}},
		&comm.ConfigPiece{In: keys, Out: sparse.MustNewSet([]int32{9})},
		&comm.ConfigPiece{In: keys, Out: keys, HasVals: true, Vals: []float32{8, 8, 8, 8}},
		&comm.ConfigPiece{InSame: true, Out: keys},
	}
	for i, p := range payloads {
		tag := comm.MakeTag(comm.KindApp, 1, uint32(i))
		if err := nodes[0].Send(1, tag, p); err != nil {
			t.Fatal(err)
		}
		q, err := nodes[1].Recv(0, tag)
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if q.WireSize() != p.WireSize() {
			t.Fatalf("payload %d changed size over the wire", i)
		}
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	nodes := testCluster(t, 2, Options{})
	tag := comm.MakeTag(comm.KindApp, 0, 7)
	if err := nodes[0].Send(1, tag, &comm.Bytes{Data: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Send(0, tag, &comm.Bytes{Data: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if p, err := nodes[1].Recv(0, tag); err != nil || string(p.(*comm.Bytes).Data) != "a" {
		t.Fatal("0->1 lost")
	}
	if p, err := nodes[0].Recv(1, tag); err != nil || string(p.(*comm.Bytes).Data) != "b" {
		t.Fatal("1->0 lost")
	}
}

func TestManyMessagesOrdered(t *testing.T) {
	nodes := testCluster(t, 2, Options{})
	const count = 500
	for i := 0; i < count; i++ {
		if err := nodes[0].Send(1, comm.MakeTag(comm.KindApp, 0, uint32(i)), &comm.Floats{Vals: []float32{float32(i)}}); err != nil {
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
}

func TestRecvTimeout(t *testing.T) {
	nodes := testCluster(t, 2, Options{RecvTimeout: 100 * time.Millisecond})
	_, err := nodes[0].Recv(1, comm.MakeTag(comm.KindApp, 0, 0))
	if !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestSendValidatesRank(t *testing.T) {
	nodes := testCluster(t, 2, Options{})
	if err := nodes[0].Send(9, comm.MakeTag(comm.KindApp, 0, 0), &comm.Bytes{}); err == nil {
		t.Fatal("accepted bad rank")
	}
}

func TestCloseIsIdempotentAndFast(t *testing.T) {
	nodes, err := LocalCluster(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Create some cross traffic so conns exist.
	tag := comm.MakeTag(comm.KindApp, 0, 0)
	for i := 0; i < 3; i++ {
		_ = nodes[i].Send((i+1)%3, tag, &comm.Bytes{Data: []byte("x")})
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		CloseAll(nodes)
		_ = nodes[0].Close() // second close is a no-op
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	nodes, err := LocalCluster(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	CloseAll(nodes)
	if err := nodes[0].Send(1, comm.MakeTag(comm.KindApp, 0, 0), &comm.Bytes{}); !errors.Is(err, comm.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestDialUnreachablePeerDropsQuietly(t *testing.T) {
	// A node whose peer address is unreachable must not error on Send
	// (the replication layer handles dead peers); traffic is dropped.
	addrs := []string{"127.0.0.1:0", "127.0.0.1:1"} // port 1: nothing listens
	n, err := Listen(0, addrs, Options{DialTimeout: 200 * time.Millisecond, RecvTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Send(1, comm.MakeTag(comm.KindApp, 0, 0), &comm.Bytes{Data: []byte("void")}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let the dial fail and park
}

func TestObserverCountsTCPTraffic(t *testing.T) {
	col := obs.NewTraffic(2)
	nodes := testCluster(t, 2, Options{Observer: col.Observer})
	p := &comm.Floats{Vals: make([]float32, 100)}
	tag := comm.MakeTag(comm.KindReduce, 1, 0)
	if err := nodes[0].Send(1, tag, p); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[1].Recv(0, tag); err != nil {
		t.Fatal(err)
	}
	layers := col.KindLayers(comm.KindReduce)
	if len(layers) != 1 || layers[0].Bytes != int64(p.WireSize()) {
		t.Fatalf("recorder saw %+v", layers)
	}
}

// The full Kylix protocol must run unmodified over real TCP sockets and
// agree with a brute-force reference.
func TestKylixAllreduceOverTCP(t *testing.T) {
	bf := topo.MustNew([]int{2, 2})
	nodes := testCluster(t, 4, Options{})
	rng := rand.New(rand.NewSource(55))

	ins := make([]sparse.Set, 4)
	outs := make([]sparse.Set, 4)
	vals := make([][]float32, 4)
	for r := 0; r < 4; r++ {
		idx := make([]int32, 50)
		for i := range idx {
			idx[i] = int32(rng.Intn(300))
		}
		ins[r] = sparse.MustNewSet(idx[:25])
		outs[r] = sparse.MustNewSet(append(append([]int32{}, idx...), idx[:25]...))
		vals[r] = make([]float32, len(outs[r]))
		for i := range vals[r] {
			vals[r][i] = float32(rng.Intn(20))
		}
	}
	totals := map[sparse.Key]float32{}
	for r := 0; r < 4; r++ {
		for i, k := range outs[r] {
			totals[k] += vals[r][i]
		}
	}

	errc := make(chan error, 4)
	results := make([][]float32, 4)
	for r := 0; r < 4; r++ {
		go func(r int) {
			m, err := core.NewMachine(nodes[r], bf, core.Options{})
			if err != nil {
				errc <- err
				return
			}
			cfg, err := m.Configure(ins[r], outs[r])
			if err != nil {
				errc <- err
				return
			}
			res, err := cfg.Reduce(vals[r])
			results[r] = res
			errc <- err
		}(r)
	}
	for r := 0; r < 4; r++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 4; r++ {
		for i, k := range ins[r] {
			want := totals[k]
			if diff := results[r][i] - want; diff > 1e-3 || diff < -1e-3 {
				t.Fatalf("rank %d key %d: got %f want %f", r, k.Index(), results[r][i], want)
			}
		}
	}
}

// TestEarlyFinisherFlushesQueuedFrames is the regression test for the
// shutdown bug where a rank that completed a collective and closed its
// node immediately could strand its final frames in the writer queues:
// the receiver-side ranks would then time out waiting for gather
// messages. Close must flush queued frames before tearing down.
func TestEarlyFinisherFlushesQueuedFrames(t *testing.T) {
	nodes, err := LocalCluster(2, Options{RecvTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Queue a burst of frames and close immediately, before the writer
	// goroutine has had a chance to drain.
	const count = 200
	payload := &comm.Floats{Vals: make([]float32, 256)}
	for i := 0; i < count; i++ {
		if err := nodes[0].Send(1, comm.MakeTag(comm.KindGather, 1, uint32(i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		if _, err := nodes[1].Recv(0, comm.MakeTag(comm.KindGather, 1, uint32(i))); err != nil {
			t.Fatalf("frame %d lost after early close: %v", i, err)
		}
	}
	_ = nodes[1].Close()
}

// TestCorruptFrameDropsStream verifies the CRC path: a frame whose
// payload was corrupted on the wire must be discarded (stream dropped),
// never delivered as plausible-but-wrong data.
func TestCorruptFrameDropsStream(t *testing.T) {
	// Stand up a raw listener playing rank 1 so the test can inject a
	// corrupted frame by hand.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addrs := []string{"127.0.0.1:0", ln.Addr().String()}
	n, err := Listen(0, addrs, Options{RecvTimeout: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Dial rank 0 pretending to be rank 1 and send one good and one
	// corrupted frame.
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hs [8]byte
	binary.LittleEndian.PutUint32(hs[:4], magic)
	binary.LittleEndian.PutUint32(hs[4:8], 1)
	if _, err := conn.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	good := comm.Payload(&comm.Floats{Vals: []float32{1, 2, 3}})
	goodTag := comm.MakeTag(comm.KindApp, 0, 1)
	var hdr [hdrSize]byte
	var seq uint64
	send := func(tag comm.Tag, data []byte, corrupt bool) {
		seq++
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(data)))
		binary.LittleEndian.PutUint64(hdr[4:12], uint64(tag))
		sum := crc32.Checksum(data, castagnoli)
		if corrupt {
			sum ^= 0xDEADBEEF
		}
		binary.LittleEndian.PutUint32(hdr[12:16], sum)
		binary.LittleEndian.PutUint64(hdr[16:24], seq)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	send(goodTag, good.AppendTo(nil), false)
	if p, err := n.Recv(1, goodTag); err != nil || p.(*comm.Floats).Vals[1] != 2 {
		t.Fatalf("good frame not delivered: %v %v", p, err)
	}
	badTag := comm.MakeTag(comm.KindApp, 0, 2)
	send(badTag, good.AppendTo(nil), true)
	if _, err := n.Recv(1, badTag); !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("corrupted frame outcome: %v, want timeout (dropped)", err)
	}
}
