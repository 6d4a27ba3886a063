package tcpnet

import (
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/memnet"
	"kylix/internal/obs"
	"kylix/internal/sparse"
)

// TestReceiveSideAllocatesNothingOnceWarm: value blocks of ten shapes
// ping-ponged between two nodes, each released by its receiver, are
// decoded into recycled headers and buffers — a warm round allocates
// nothing anywhere in the process and misses the pool never — and the
// bytes a pool parks stay under the send window's rule while a 4 MiB
// outlier passes through.
func TestReceiveSideAllocatesNothingOnceWarm(t *testing.T) {
	m := obs.NewTransportMetrics(nil)
	nodes := testCluster(t, 2, Options{RecvTimeout: 20 * time.Second, Metrics: m})
	// Every release reports what its pool then holds; the bound follows the
	// largest block sent so far.
	largest := 0
	for _, n := range nodes {
		report := n.pool.Parked
		n.pool.Parked = func(parked int64) {
			report(parked)
			if bound := windowBound(largest); parked > int64(bound) {
				t.Errorf("%d bytes parked, bound %d", parked, bound)
			}
		}
	}
	var blocks []comm.Payload
	for i, n := range []int{1, 7, 64, 300, 1000, 1792, 2600, 4097} {
		vals := make([]float32, n)
		for j := range vals {
			vals[j] = float32(i + j)
		}
		blocks = append(blocks, &comm.Floats{Vals: vals})
	}
	for _, mode := range []sparse.Quantization{sparse.QuantFP16, sparse.QuantINT8} {
		q := &comm.QVals{Mode: mode, N: 1792, Data: make([]byte, sparse.QuantizedSize(mode, 1792))}
		for j := range q.Data {
			q.Data[j] = byte(j)
		}
		blocks = append(blocks, q)
	}
	ping, pong := comm.MakeTag(comm.KindApp, 0, 1), comm.MakeTag(comm.KindApp, 0, 2)
	// bounce sends p from rank 0 to rank 1 and back — the echo is encoded
	// out of the pooled block before it is released — and checks it.
	bounce := func(p comm.Payload) {
		largest = max(largest, p.WireSize())
		if err := nodes[0].Send(1, ping, p); err != nil {
			t.Fatal(err)
		}
		got, err := nodes[1].Recv(0, ping)
		if err == nil {
			err = nodes[1].Send(0, pong, got)
		}
		if err != nil {
			t.Fatal(err)
		}
		comm.Release(got)
		if got, err = nodes[0].Recv(1, pong); err != nil {
			t.Fatal(err)
		}
		switch want := p.(type) {
		case *comm.Floats:
			back := got.(*comm.Floats).Vals
			if len(back) != len(want.Vals) || back[0] != want.Vals[0] || back[len(back)-1] != want.Vals[len(back)-1] {
				t.Fatalf("%d floats came back as %d, or changed", len(want.Vals), len(back))
			}
		case *comm.QVals:
			back := got.(*comm.QVals)
			if back.Mode != want.Mode || back.N != want.N || string(back.Data) != string(want.Data) {
				t.Fatalf("%v block of %d came back as %v block of %d, or changed", want.Mode, want.N, back.Mode, back.N)
			}
		}
		comm.Release(got)
	}
	round := func() {
		for _, p := range blocks {
			bounce(p)
		}
	}
	for i := 0; i < 5; i++ { // pools, send windows and mailboxes fill
		round()
	}
	misses := m.RecvPoolMisses.Value()
	if misses == 0 {
		t.Fatal("no pool miss recorded while warming up: the metric is not wired")
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("a warm round allocated %v times, want 0", allocs)
	}
	if now := m.RecvPoolMisses.Value(); now != misses {
		t.Errorf("%d pool misses in warm rounds, want none", now-misses)
	}

	bounce(&comm.Floats{Vals: make([]float32, 1<<20)})
	round()
	if high := m.RecvPoolBytesHigh.Value(); high < 4<<20 {
		t.Errorf("parked-bytes high-water %d after a 4 MiB block was released", high)
	}
}

// TestReleaseLeavesPayloadsDeliveredByReferenceAlone: what a tcpnet node
// sends itself, like what memnet delivers, is the sender's own payload —
// it has no pool to go back to, and releasing it (poison on) changes
// nothing the sender can see.
func TestReleaseLeavesPayloadsDeliveredByReferenceAlone(t *testing.T) {
	comm.PoisonReleased(true)
	defer comm.PoisonReleased(false)
	nodes := testCluster(t, 1, Options{})
	net := memnet.New(2)
	defer net.Close()
	tag := comm.MakeTag(comm.KindApp, 0, 1)
	for name, hop := range map[string]struct {
		from, to comm.Endpoint
	}{
		"tcpnet self-send": {nodes[0], nodes[0]},
		"memnet":           {net.Endpoint(0), net.Endpoint(1)},
	} {
		sent := &comm.Floats{Vals: []float32{1, 2, 3}}
		if err := hop.from.Send(hop.to.Rank(), tag, sent); err != nil {
			t.Fatal(err)
		}
		got, err := hop.to.Recv(hop.from.Rank(), tag)
		if err != nil {
			t.Fatal(err)
		}
		if got != comm.Payload(sent) {
			t.Fatalf("%s: delivered a copy, not the sender's payload", name)
		}
		comm.Release(got)
		if sent.Vals[0] != 1 || sent.Vals[1] != 2 || sent.Vals[2] != 3 {
			t.Fatalf("%s: release reached into the sender's buffer: %v", name, sent.Vals)
		}
	}
}
