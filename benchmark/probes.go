package main

// The layer probes: the benchmark timing the layers' exported functions
// from outside, on inputs taken from the workload. This file is the
// whole surface the benchmark touches below the root API:
//
//	sparse   NewSet, Key, CombineInto, GatherInto, UnionScratch.UnionMaps,
//	         AppendCompressed, DecodeCompressed, Quantize, Dequantize,
//	         QuantizedSize, Sum
//	comm     NewMailbox, Mailbox.Deliver/RecvGroup, Floats.AppendTo,
//	         DecodePayload, Bytes, MakeTag, Endpoint
//	memnet   New, Run
//	tcpnet   LocalCluster, CloseAll
//	core     NewMachine, Machine.Configure, Config.Reduce
//	topo     New (core.NewMachine takes the butterfly)
//	par      NewPool, Pool.CombineInto, Pool.End
//
// (workloads.go adds powerlaw's generator for inputs, trace.go the
// comm.Kind values spans are labelled with.) Traffic is read through
// Cluster.Traffic only; internal/trace and the Recorder / RawRecorder /
// RecvObserver / Tracer hooks are deliberately not used, so that
// collapsing them does not touch the benchmark.

import (
	"errors"
	"math"
	"sort"
	"time"

	"kylix"
	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/memnet"
	"kylix/internal/par"
	"kylix/internal/sparse"
	"kylix/internal/tcpnet"
	"kylix/internal/topo"
)

// probeInput is what a workload hands the probes: its sets (key order)
// and values, and the shape the layers run them at.
type probeInput struct {
	sets      [][]int32
	vals      [][]float32
	width     int
	quantized bool
}

// medianNs times calls batches of batch invocations of f and returns
// the median cost of one invocation, ns.
func medianNs(calls, batch int, f func()) float64 {
	ns := make([]float64, calls)
	for i := range ns {
		t := time.Now()
		for j := 0; j < batch; j++ {
			f()
		}
		ns[i] = float64(time.Since(t)) / float64(batch)
	}
	return median(ns)
}

// runProbes measures the single-layer numbers for w. The piece is the
// one rank 0 sends its first layer-1 group member: rank 0's set cut at
// the first of d_1 hash-range boundaries.
func runProbes(w *workload, probeCalls int) (values, error) {
	in := w.probe
	v := values{}
	d1 := w.degrees[0]
	bound := sparse.Key(uint64(1<<32/d1) << 32)
	pieces := make([]sparse.Set, d1)
	maps := make([][]int32, d1)
	keys := 0
	for t := range pieces {
		set, _, err := sparse.NewSet(in.sets[t])
		if err != nil {
			return nil, err
		}
		pieces[t] = set[:sort.Search(len(set), func(i int) bool { return set[i] >= bound })]
		maps[t] = make([]int32, len(pieces[t]))
		keys += len(pieces[t])
	}
	piece := pieces[0]
	rows, width := len(piece), in.width
	elems := float64(rows * width)

	var scratch sparse.UnionScratch
	var union sparse.Set
	v["sparse.union_maps_ns_per_key"] = medianNs(probeCalls, 1, func() { union = scratch.UnionMaps(pieces, maps) }) / float64(keys)

	src := append([]float32(nil), in.vals[0][:rows*width]...)
	acc := make([]float32, len(union)*width)
	dst := make([]float32, rows*width)
	combine := medianNs(probeCalls, 1, func() { sparse.CombineInto(sparse.Sum, acc, maps[0], src, width) })
	v["sparse.combine_ns_per_elem"] = combine / elems
	v["sparse.gather_ns_per_elem"] = medianNs(probeCalls, 1, func() { sparse.GatherInto(dst, maps[0], acc, width, 0) }) / elems

	v["par.combine_speedup"] = combineSpeedup(width, probeCalls)

	var enc []byte
	var dec sparse.Set
	var derr error
	v["sparse.keys_encode_ns_per_key"] = medianNs(probeCalls, 1, func() { enc = sparse.AppendCompressed(enc[:0], piece) }) / float64(rows)
	v["sparse.keys_decode_ns_per_key"] = medianNs(probeCalls, 1, func() {
		var e error
		if dec, _, e = sparse.DecodeCompressed(dec[:0], enc); e != nil {
			derr = e
		}
	}) / float64(rows)
	v["sparse.keys_bytes_per_key"] = float64(len(enc)) / float64(rows)

	if in.quantized {
		res := make([]float32, len(src))
		for _, q := range []sparse.Quantization{sparse.QuantINT8, sparse.QuantFP16} {
			qbuf := make([]byte, sparse.QuantizedSize(q, len(src)))
			v["sparse.quantize_"+q.String()+"_ns_per_elem"] = medianNs(probeCalls, 1, func() { sparse.Quantize(q, qbuf, src, res) }) / elems
			v["sparse.dequantize_"+q.String()+"_ns_per_elem"] = medianNs(probeCalls, 1, func() { sparse.Dequantize(q, dst, qbuf) }) / elems
		}
	}

	floats := &comm.Floats{Vals: src}
	var wire []byte
	v["comm.floats_encode_ns_per_kb"] = medianNs(probeCalls, 1, func() { wire = floats.AppendTo(wire[:0]) }) / (float64(len(wire)) / 1024)
	v["comm.floats_decode_ns_per_kb"] = medianNs(probeCalls, 1, func() {
		if _, e := comm.DecodePayload(wire); e != nil {
			derr = e
		}
	}) / (float64(len(wire)) / 1024)

	box := comm.NewMailbox(0)
	tag := comm.MakeTag(comm.KindApp, 1, 0)
	from := [][]int{{1}}
	v["comm.mailbox_deliver_recv_ns"] = medianNs(probeCalls, 64, func() {
		box.Deliver(1, tag, floats)
		if _, _, e := box.RecvGroup(from, tag); e != nil {
			derr = e
		}
	})
	box.Close()
	if derr != nil {
		return nil, derr
	}

	if !w.tcp {
		net := memnet.New(2, memnet.WithRecvTimeout(recvTimeout))
		oneWay, err := pingPong(net.Endpoint(0), net.Endpoint(1), floats, probeCalls)
		net.Close()
		if err != nil {
			return nil, err
		}
		v["memnet.send_recv_us"] = oneWay / 1e3
	} else {
		if err := tcpProbes(v, floats, probeCalls); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// combineSpeedup is serial sparse.CombineInto time over the default
// pool's, on the smallest kernel the pool cuts four ways (it splits at
// 8192 elements a shard). None of the gated workloads has a block that
// large, so the pool's standing number is taken at a fixed size.
func combineSpeedup(width, probeCalls int) float64 {
	rows := 4 * 8192 / width
	m := make([]int32, rows)
	for p := range m {
		m[p] = int32(2 * p)
	}
	src, acc := make([]float32, rows*width), make([]float32, 2*rows*width)
	serial := medianNs(probeCalls, 1, func() { sparse.CombineInto(sparse.Sum, acc, m, src, width) })
	pool := par.NewPool(0)
	pooled := medianNs(probeCalls, 1, func() { pool.CombineInto(sparse.Sum, acc, m, src, width) })
	pool.End()
	return serial / pooled
}

// pingPong bounces p between two endpoints n times and returns the
// median one-way time, ns: half a round trip, wake-up included.
func pingPong(a, b comm.Endpoint, p comm.Payload, n int) (float64, error) {
	ping, pong := comm.MakeTag(comm.KindApp, 1, 1), comm.MakeTag(comm.KindApp, 1, 2)
	echo := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := b.Recv(a.Rank(), ping); err != nil {
				echo <- err
				return
			}
			if err := b.Send(a.Rank(), pong, p); err != nil {
				echo <- err
				return
			}
		}
		echo <- nil
	}()
	var err error
	oneWay := medianNs(n, 1, func() {
		if err != nil {
			return
		}
		if err = a.Send(b.Rank(), ping, p); err == nil {
			_, err = a.Recv(b.Rank(), pong)
		}
	}) / 2
	if err != nil {
		// The echo side is parked in Recv until its timeout; report the
		// sender's error without waiting for it.
		return 0, err
	}
	return oneWay, <-echo
}

// tcpProbes times a two-node loopback cluster: a piece-sized message, a
// 64-byte message (the per-message cost) and a one-way bulk stream.
func tcpProbes(v values, piece comm.Payload, probeCalls int) (err error) {
	nodes, err := tcpnet.LocalCluster(2, tcpnet.Options{RecvTimeout: recvTimeout})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, tcpnet.CloseAll(nodes)) }()
	a, b := nodes[0], nodes[1]
	oneWay, err := pingPong(a, b, piece, probeCalls)
	if err != nil {
		return err
	}
	v["tcpnet.send_recv_us"] = oneWay / 1e3
	if oneWay, err = pingPong(a, b, &comm.Bytes{Data: make([]byte, 64)}, probeCalls); err != nil {
		return err
	}
	v["tcpnet.small_msg_us"] = oneWay / 1e3

	const msgs, size = 64, 1 << 20
	bulk, ack := comm.MakeTag(comm.KindApp, 2, 1), comm.MakeTag(comm.KindApp, 2, 2)
	block := &comm.Bytes{Data: make([]byte, size)}
	sink := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if _, err := b.Recv(0, bulk); err != nil {
				sink <- err
				return
			}
		}
		sink <- b.Send(0, ack, &comm.Bytes{})
	}()
	t := time.Now()
	for i := 0; i < msgs; i++ {
		if err := a.Send(1, bulk, block); err != nil {
			return err
		}
	}
	if err := <-sink; err != nil {
		return err
	}
	if _, err := a.Recv(1, ack); err != nil {
		return err
	}
	v["tcpnet.goodput_mbps"] = msgs * size / 1e6 / time.Since(t).Seconds()
	return nil
}

// directPass runs the warm workload's inputs straight through
// core.Machine over memnet endpoints, without the root API's set
// preparation and permute copies, and returns the median over passes of
// the slowest rank's Config.Reduce call, ms.
func directPass(w *workload, passes int) (float64, error) {
	in := w.probe
	bf, err := topo.New(w.degrees)
	if err != nil {
		return 0, err
	}
	net := memnet.New(bf.M(), memnet.WithRecvTimeout(recvTimeout))
	defer net.Close()
	dur := make([][]int64, bf.M())
	err = memnet.Run(net, func(ep comm.Endpoint) error {
		r := ep.Rank()
		mach, err := core.NewMachine(ep, bf, core.Options{Width: in.width})
		if err != nil {
			return err
		}
		// The workload's sets are already in key order, so the values
		// align with the Set as they are.
		set, _, err := sparse.NewSet(in.sets[r])
		if err != nil {
			return err
		}
		cfg, err := mach.Configure(set, set)
		if err != nil {
			return err
		}
		dur[r] = make([]int64, passes)
		for i := range dur[r] {
			t := time.Now()
			if _, err := cfg.Reduce(in.vals[r]); err != nil {
				return err
			}
			dur[r][i] = int64(time.Since(t))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	slow := make([]float64, passes)
	for i := range slow {
		for _, d := range dur {
			slow[i] = math.Max(slow[i], float64(d[i])/1e6)
		}
	}
	return median(slow), nil
}

// emptyStreamRun is the fixed cost of a tenant pass: a Stream.Run whose
// function returns at once still takes a scheduler slot, builds a node
// per machine and joins them. Median, us.
func emptyStreamRun(w *workload, probeCalls int) (us float64, err error) {
	c, err := w.open()
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, c.Close()) }()
	st, err := c.OpenStream()
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	var rerr error
	ns := medianNs(probeCalls, 1, func() {
		if e := st.Run(func(*kylix.Node) error { return nil }); e != nil {
			rerr = e
		}
	})
	return ns / 1e3, rerr
}
