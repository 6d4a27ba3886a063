package memnet

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/obs"
)

func TestPointToPoint(t *testing.T) {
	n := New(2)
	defer n.Close()
	a, b := n.Endpoint(0), n.Endpoint(1)
	tag := comm.MakeTag(comm.KindApp, 0, 0)
	if err := a.Send(1, tag, &comm.Bytes{Data: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	p, err := b.Recv(0, tag)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.(*comm.Bytes).Data) != "hi" {
		t.Fatal("wrong data")
	}
}

func TestSelfSend(t *testing.T) {
	n := New(1)
	defer n.Close()
	ep := n.Endpoint(0)
	tag := comm.MakeTag(comm.KindApp, 0, 1)
	if err := ep.Send(0, tag, &comm.Floats{Vals: []float32{7}}); err != nil {
		t.Fatal(err)
	}
	p, err := ep.Recv(0, tag)
	if err != nil || p.(*comm.Floats).Vals[0] != 7 {
		t.Fatalf("self send broken: %v %v", p, err)
	}
}

func TestSendBoundsChecked(t *testing.T) {
	n := New(2)
	defer n.Close()
	if err := n.Endpoint(0).Send(5, comm.MakeTag(comm.KindApp, 0, 0), &comm.Bytes{}); err == nil {
		t.Fatal("want error for out-of-range rank")
	}
}

func TestEndpointPanicsOnBadRank(t *testing.T) {
	n := New(2)
	defer n.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	n.Endpoint(2)
}

func TestKillDropsTraffic(t *testing.T) {
	n := New(3, WithRecvTimeout(100*time.Millisecond))
	defer n.Close()
	n.Kill(1)
	if !n.Dead(1) || n.Dead(0) {
		t.Fatal("liveness flags wrong")
	}
	tag := comm.MakeTag(comm.KindApp, 0, 0)
	// Sending into a dead machine succeeds silently.
	if err := n.Endpoint(0).Send(1, tag, &comm.Bytes{}); err != nil {
		t.Fatal(err)
	}
	// A dead machine cannot send.
	if err := n.Endpoint(1).Send(0, tag, &comm.Bytes{}); !errors.Is(err, comm.ErrClosed) {
		t.Fatalf("dead send err = %v", err)
	}
	// Receives from it time out.
	if _, err := n.Endpoint(2).Recv(1, tag); !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("recv err = %v", err)
	}
}

func TestObserverSeesTrafficIncludingDead(t *testing.T) {
	col := obs.NewTraffic(3)
	n := New(3, WithObserver(col.Observer))
	defer n.Close()
	n.Kill(2)
	tag := comm.MakeTag(comm.KindReduce, 1, 0)
	payload := &comm.Floats{Vals: make([]float32, 10)}
	if err := n.Endpoint(0).Send(1, tag, payload); err != nil {
		t.Fatal(err)
	}
	if err := n.Endpoint(0).Send(2, tag, payload); err != nil {
		t.Fatal(err)
	}
	layers := col.KindLayers(comm.KindReduce)
	if len(layers) != 1 || layers[0].Msgs != 2 {
		t.Fatalf("recorder missed dead-target send: %+v", layers)
	}
	if layers[0].Bytes != 2*int64(payload.WireSize()) {
		t.Fatalf("bytes = %d", layers[0].Bytes)
	}
}

func TestRunAllRanks(t *testing.T) {
	n := New(4)
	defer n.Close()
	var count atomic.Int32
	err := Run(n, func(ep comm.Endpoint) error {
		count.Add(1)
		if ep.Size() != 4 {
			t.Error("wrong size")
		}
		// Ring exchange: everyone sends right, receives from left.
		tag := comm.MakeTag(comm.KindApp, 0, 9)
		if err := ep.Send((ep.Rank()+1)%4, tag, &comm.Floats{Vals: []float32{float32(ep.Rank())}}); err != nil {
			return err
		}
		p, err := ep.Recv((ep.Rank()+3)%4, tag)
		if err != nil {
			return err
		}
		if int(p.(*comm.Floats).Vals[0]) != (ep.Rank()+3)%4 {
			t.Errorf("rank %d got wrong neighbour value", ep.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 4 {
		t.Fatalf("ran %d ranks", count.Load())
	}
}

func TestRunPropagatesError(t *testing.T) {
	n := New(2)
	defer n.Close()
	sentinel := errors.New("boom")
	err := Run(n, func(ep comm.Endpoint) error {
		if ep.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	n := New(2)
	defer n.Close()
	err := Run(n, func(ep comm.Endpoint) error {
		if ep.Rank() == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestRunSkipsDeadRanks(t *testing.T) {
	n := New(3)
	defer n.Close()
	n.Kill(1)
	var count atomic.Int32
	if err := Run(n, func(ep comm.Endpoint) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 2 {
		t.Fatalf("ran %d ranks, want 2", count.Load())
	}
}

func TestRunSubsetOfRanks(t *testing.T) {
	n := New(4)
	defer n.Close()
	var mask atomic.Int32
	if err := Run(n, func(ep comm.Endpoint) error {
		mask.Add(int32(1 << ep.Rank()))
		return nil
	}, 1, 3); err != nil {
		t.Fatal(err)
	}
	if mask.Load() != 0b1010 {
		t.Fatalf("ran mask %b", mask.Load())
	}
}

func TestRecvGroupRacingAcrossEndpoints(t *testing.T) {
	n := New(3)
	defer n.Close()
	tag := comm.MakeTag(comm.KindGather, 2, 0)
	if err := n.Endpoint(1).Send(2, tag, &comm.Bytes{Data: []byte("fast")}); err != nil {
		t.Fatal(err)
	}
	from, p, err := n.Endpoint(2).RecvGroup([][]int{{0, 1}}, tag)
	if err != nil {
		t.Fatal(err)
	}
	if from != 1 || string(p.(*comm.Bytes).Data) != "fast" {
		t.Fatalf("race won by %d", from)
	}
}
