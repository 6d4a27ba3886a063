package main

import (
	"fmt"
	"math"

	"kylix"
	"kylix/internal/comm"
)

// countOnePass opens a cluster with traffic recording, runs two passes
// to reach steady state, and records exactly the next one: with every
// rank parked between passes, ResetTraffic before it and Traffic after.
func countOnePass(w *workload) (*kylix.TrafficReport, error) {
	c, err := w.open(kylix.WithTrace())
	if err != nil {
		return nil, err
	}
	var rep *kylix.TrafficReport
	var terr error
	const steady = 2
	_, err = runPasses(w, c, steady+1, map[int]func(){
		steady:     c.ResetTraffic,
		steady + 1: func() { rep, terr = c.Traffic(4) },
	})
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = terr
	}
	return rep, err
}

// trafficMetrics turns one pass's TrafficReport into the two exact
// end-to-end counts and the comm/netsim per-layer numbers.
func trafficMetrics(rep *kylix.TrafficReport) (e2e, layer values) {
	e2e, layer = values{}, values{}
	var wire, msgs, bytes, raw, maxRecv, valBytes, valRaw int64
	for _, lt := range rep.Layers {
		wire += lt.WireBytes
		msgs += lt.Msgs
		bytes += lt.Bytes
		raw += lt.RawBytes
		maxRecv = max(maxRecv, lt.MaxNodeRecvBytes)
		var name string
		switch lt.Phase {
		case kylix.PhaseReduce:
			name = "reduce"
		case kylix.PhaseGather:
			name = "gather"
		case kylix.PhaseConfig, kylix.PhaseConfigReduce:
			name = "config"
		default:
			continue
		}
		if name != "config" {
			valBytes += lt.Bytes
			valRaw += lt.RawBytes
		}
		// Msgs and Bytes include self-sends, the paper's Figure 5
		// convention, so layer volumes compare with its profile.
		layer[fmt.Sprintf("comm.%s_L%d_bytes", name, lt.Layer)] += float64(lt.Bytes)
	}
	e2e["wire_bytes_per_pass"] = float64(wire)
	e2e["model_ec2_ms_per_pass"] = rep.TotalSec() * 1e3
	layer["comm.msgs_per_pass"] = float64(msgs)
	layer["comm.raw_over_wire_ratio"] = float64(raw) / float64(bytes)
	layer["comm.max_node_recv_bytes"] = float64(maxRecv)
	layer["sparse.value_bytes_per_elem"] = 4 * float64(valBytes) / float64(valRaw)
	layer["netsim.config_ms_per_pass"] = rep.ConfigSec * 1e3
	layer["netsim.reduce_ms_per_pass"] = rep.ReduceSec * 1e3
	return e2e, layer
}

// tracedMetrics reads what WithObservability exported during a traced
// window: per-layer spans and the metrics registry. passes is every
// pass the loop ran (the registry counts from cluster start), st the
// measured window.
func tracedMetrics(w *workload, c *kylix.Cluster, passes int, st passStats) values {
	v := values{}
	busy := spanBusy(w, c.Observability().Spans())
	layers := len(w.degrees)
	attributed := 0.0
	for l := 1; l <= layers; l++ {
		for kind, name := range map[comm.Kind]string{comm.KindReduce: "reduce", comm.KindGather: "gather"} {
			v[fmt.Sprintf("core.%s_L%d_busy_ms", name, l)] = busy[spanKey{kind, l}]
			attributed += busy[spanKey{kind, l}]
		}
		if config := busy[spanKey{comm.KindConfig, l}] + busy[spanKey{comm.KindConfigReduce, l}]; config > 0 {
			v[fmt.Sprintf("core.config_L%d_busy_ms", l)] = config
			attributed += config
		}
	}
	// The gather pass span nests inside the reduce or config+reduce one.
	v["core.pass_span_ms"] = busy[spanKey{comm.KindReduce, 0}] + busy[spanKey{comm.KindConfig, 0}] + busy[spanKey{comm.KindConfigReduce, 0}]
	if !w.streams {
		// On tenants-tcp-8 the two tenants' spans overlap in time, so a
		// rank's call time minus its spans means nothing there.
		v["core.unattributed_ms"] = median(st.mean) - attributed
	}

	reg := c.Metrics()
	per := func(name string) float64 { return float64(reg.Counter(name).Value()) / float64(passes) }
	v["core.arena_flips_per_pass"] = per("arena_flips") / float64(w.machines)
	fast, full := reg.Counter("reconfigure_fast_layers").Value(), reg.Counter("reconfigure_full_layers").Value()
	if fast+full > 0 {
		v["core.reconfigure_fast_ratio"] = float64(fast) / float64(fast+full)
	}
	v["comm.recv_group_wait_ms_per_pass"] = float64(reg.Histogram("recv_group_wait_ns").Sum()) / 1e6 / float64(passes) / float64(w.machines)
	v["par.shards_per_pass"] = per("combine_shards")
	v["obs.spans_dropped"] = float64(reg.Counter("spans_dropped").Value())
	if w.tcp {
		v["tcpnet.writev_calls_per_pass"] = per("tcp_writev_calls")
		v["tcpnet.frames_per_writev"] = float64(reg.Counter("tcp_frames_sent").Value()) / float64(reg.Counter("tcp_writev_calls").Value())
		v["tcpnet.reconnects"] = float64(reg.Counter("tcp_reconnects").Value())
		v["tcpnet.dedup_hits"] = float64(reg.Counter("tcp_dedup_hits").Value())
	}
	if w.streams {
		// Quantile returns the top of the log2 bucket the median is in.
		v["stream.sched_wait_us_p50"] = float64(reg.Histogram("stream_sched_wait_ns").Quantile(0.5)) / 1e3
		v["stream.rejected_passes"] = float64(reg.Counter("stream_admission_rejected").Value())
	}
	return v
}

type spanKey struct {
	kind  comm.Kind
	layer int
}

// spanBusy reduces the buffered spans to one number per (phase, layer):
// per pass the spans' total duration on a node, mean over nodes, then
// the median over passes, ms. A node's ring keeps only its newest
// spans, and every node ends on a pass boundary, so passes are counted
// back from the end of each node's series.
func spanBusy(w *workload, spans []kylix.TraceSpan) map[spanKey]float64 {
	series := map[spanKey][][]float64{} // [node] durations in order
	for _, sp := range spans {
		if sp.Event != "" {
			continue
		}
		k := spanKey{sp.Kind, sp.Layer}
		if series[k] == nil {
			series[k] = make([][]float64, w.machines)
		}
		series[k][sp.Node] = append(series[k][sp.Node], float64(sp.End-sp.Start)/1e6)
	}
	busy := map[spanKey]float64{}
	for k, nodes := range series {
		per := w.spansPerPass[k.kind]
		if per == 0 {
			continue
		}
		kept := math.MaxInt
		for _, d := range nodes {
			kept = min(kept, len(d)/per)
		}
		// The oldest kept group may have lost spans to the ring.
		kept--
		var perPass []float64
		for j := 1; j <= kept; j++ {
			sum := 0.0
			for _, d := range nodes {
				for _, x := range d[len(d)-j*per : len(d)-(j-1)*per] {
					sum += x
				}
			}
			perPass = append(perPass, sum/float64(len(nodes)))
		}
		if len(perPass) > 0 {
			busy[k] = median(perPass)
		}
	}
	return busy
}
