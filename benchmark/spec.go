package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metric is one named number with its unit. The names are the repo's
// performance vocabulary: BENCHMARK.json lists exactly these, and the
// smoke test holds the two together.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are what a caller of the library sees; each has a regression
// bound in BENCHMARK.json.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"pass_ms_p50", "ms"},
	{"elems_per_s_per_node", "1/s"},
	{"wire_bytes_per_pass", "bytes"},
	{"model_ec2_ms_per_pass", "ms"},
	{"alloc_kb_per_pass", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the single-layer numbers, prefixed by module.
var perLayer = []metric{
	{"kylix.new_cluster_ms", "ms"},
	{"kylix.configure_cold_ms", "ms"},
	{"kylix.close_ms", "ms"},
	{"kylix.root_overhead_ms", "ms"},
	{"kylix.configure_reduce_ms_p50", "ms"},
	{"kylix.reconfigure_ms_p50", "ms"},
	{"kylix.reduce_after_reconfig_ms_p50", "ms"},
	{"kylix.stream_run_empty_us", "us"},

	{"core.direct_pass_ms_p50", "ms"},
	{"core.reduce_L1_busy_ms", "ms"},
	{"core.reduce_L2_busy_ms", "ms"},
	{"core.reduce_L3_busy_ms", "ms"},
	{"core.gather_L1_busy_ms", "ms"},
	{"core.gather_L2_busy_ms", "ms"},
	{"core.gather_L3_busy_ms", "ms"},
	{"core.config_L1_busy_ms", "ms"},
	{"core.config_L2_busy_ms", "ms"},
	{"core.pass_span_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"core.arena_flips_per_pass", "count"},
	{"core.reconfigure_fast_ratio", "ratio"},

	{"sparse.combine_ns_per_elem", "ns"},
	{"sparse.gather_ns_per_elem", "ns"},
	{"sparse.union_maps_ns_per_key", "ns"},
	{"sparse.keys_encode_ns_per_key", "ns"},
	{"sparse.keys_decode_ns_per_key", "ns"},
	{"sparse.keys_bytes_per_key", "bytes"},
	{"sparse.quantize_int8_ns_per_elem", "ns"},
	{"sparse.dequantize_int8_ns_per_elem", "ns"},
	{"sparse.quantize_fp16_ns_per_elem", "ns"},
	{"sparse.dequantize_fp16_ns_per_elem", "ns"},
	{"sparse.value_bytes_per_elem", "bytes"},

	{"comm.floats_encode_ns_per_kb", "ns"},
	{"comm.floats_decode_ns_per_kb", "ns"},
	{"comm.mailbox_deliver_recv_ns", "ns"},
	{"comm.recv_group_wait_ms_per_pass", "ms"},
	{"comm.msgs_per_pass", "count"},
	{"comm.reduce_L1_bytes", "bytes"},
	{"comm.reduce_L2_bytes", "bytes"},
	{"comm.reduce_L3_bytes", "bytes"},
	{"comm.gather_L1_bytes", "bytes"},
	{"comm.gather_L2_bytes", "bytes"},
	{"comm.gather_L3_bytes", "bytes"},
	{"comm.config_L1_bytes", "bytes"},
	{"comm.config_L2_bytes", "bytes"},
	{"comm.raw_over_wire_ratio", "ratio"},
	{"comm.max_node_recv_bytes", "bytes"},

	{"memnet.send_recv_us", "us"},

	{"tcpnet.send_recv_us", "us"},
	{"tcpnet.small_msg_us", "us"},
	{"tcpnet.goodput_mbps", "MB/s"},
	{"tcpnet.frames_per_writev", "ratio"},
	{"tcpnet.writev_calls_per_pass", "count"},
	{"tcpnet.reconnects", "count"},
	{"tcpnet.dedup_hits", "count"},
	{"tcpnet.large_pass_ms_p50", "ms"},
	{"tcpnet.large_stall_ratio", "ratio"},

	{"par.shards_per_pass", "count"},
	{"par.combine_speedup", "ratio"},
	{"par.large_shards_per_pass", "count"},

	{"stream.sched_wait_us_p50", "us"},
	{"stream.rejected_passes", "count"},
	{"stream.tenant_a_run_ms_p50", "ms"},
	{"stream.tenant_b_run_ms_p50", "ms"},
	{"stream.tenant_pass_ratio", "ratio"},

	{"netsim.config_ms_per_pass", "ms"},
	{"netsim.reduce_ms_per_pass", "ms"},

	{"obs.overhead_ratio", "ratio"},
	{"obs.spans_dropped", "count"},

	{"runtime.allocs_per_pass", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},

	{"driver.pass_ms_p90", "ms"},
	{"driver.pass_ms_p99", "ms"},
	{"driver.stall_pass_ratio", "ratio"},
	{"driver.passes_per_s", "1/s"},
	{"driver.rank_skew_ms", "ms"},
	{"driver.block_spread", "ratio"},
}

// values maps metric names to measurements. A metric the workload does
// not have by design (tcpnet.* on a memory workload) is absent: tables
// print it as n/a and the result line, which must hold a number,
// carries notApplicable.
type values map[string]float64

const notApplicable = -1

func (v values) merge(o values) {
	for k, x := range o {
		v[k] = x
	}
}

// set stores x unless it is NaN, the probes' "not applicable".
func (v values) set(name string, x float64) {
	if !math.IsNaN(x) {
		v[name] = x
	}
}

// limit is one end-to-end metric's entry in BENCHMARK.json: the share of
// the parent's median by which it may get worse, and which way is worse.
type limit struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// worsening is how much worse b is than a, as a share of a; negative
// when b is better.
func (g limit) worsening(a, b float64) float64 {
	if g.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// readLimits reads the end-to-end limits from the BENCHMARK.json the
// command is run beside.
func readLimits(path string) (map[string]limit, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []limit `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]limit{}
	for _, g := range spec.EndToEnd {
		out[g.Name] = g
	}
	return out, nil
}
