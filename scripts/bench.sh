#!/usr/bin/env sh
# Hot-path and figure benchmarks with memory accounting.
#
#   scripts/bench.sh            # run the benchmarks, print the results
#                               # and record them: BENCH_reduce.json,
#                               # BENCH_config.json and BENCH_wire.json
#                               # (ns/op, B/op, allocs/op, and the
#                               # value-codec wire accounting). This is
#                               # `make bench`, and the only mode that
#                               # writes a tracked file.
#   scripts/bench.sh --gate     # run the same benchmarks, print them,
#                               # write no tracked file, and fail if
#                               # either warm Reduce
#                               # benchmark (plain or with observability)
#                               # allocates (>0 allocs/op), if the
#                               # observability-enabled run is more than
#                               # KYLIX_BENCH_TOLERANCE percent (default
#                               # 10) slower than the number recorded in
#                               # BENCH_reduce.json, if the configuration
#                               # pass (BenchmarkConfigure8x4x2) is no
#                               # longer >=1.5x faster (tolerance-widened)
#                               # than the archived pre-rework baseline
#                               # in scripts/bench_config_baseline.txt,
#                               # or if a warm
#                               # unchanged-sets Reconfigure allocates
#                               # more than twice per op or more than 1%
#                               # of the bytes of the full fused
#                               # ConfigureReduce on the same topology
#                               # (their ns ratio is printed, not gated),
#                               # or if the fused pass on a warm machine
#                               # (BenchmarkConfigureReduce16) allocates
#                               # more B/op than the per-Config-arena row
#                               # archived in scripts/bench_baseline.txt,
#                               # or if the index codec (BenchmarkKeysCodec)
#                               # allocates, or if the warm Reduce over
#                               # loopback TCP (BenchmarkReduceWarmTCP) or
#                               # the value codec through the receive pool
#                               # (BenchmarkFloatsCodec) does.
#                               # The wire gate additionally requires the
#                               # quantized warm Reduce (fp16 and int8) to
#                               # stay at 0 allocs/op and fp16 to ship
#                               # >=1.7x fewer value-plane payload bytes
#                               # than raw float32, each value-codec
#                               # kernel to stay a fixed fraction of its
#                               # reference's ns/op in the same run (a
#                               # ratio, so box noise cancels), and the measured
#                               # Figure 2 sweep to show loopback
#                               # throughput rising from 1 KB to 4 MB
#                               # packets (a wall-clock shape, so it is
#                               # gated here and not in go test ./...).
#                               # It also prints ReduceWarmObs over
#                               # ReduceWarmQuick from the same run, a
#                               # ratio reported and not gated.
#
# BENCH_reduce.json is the checked-in record of the hot-path numbers;
# regenerate it with a bare run when the hot path changes and commit
# both runs' numbers alongside (see EXPERIMENTS.md). The gate reads the
# record and never moves it: a gate that rewrote its own baseline would
# compare each run with the previous one and let slow drift through,
# and would leave the tree dirty after every `make check`.
set -eu

cd "$(dirname "$0")/.."

gate=0
if [ "${1:-}" = "--gate" ]; then
    gate=1
fi

# The recorded observability-enabled hot-path time the gate compares
# against. Absent (nothing recorded yet) the regression check is skipped.
prev_obs_ns=""
if [ -f BENCH_reduce.json ]; then
    prev_obs_ns="$(sed -n 's/.*"BenchmarkReduceWarmObs": {"ns_per_op": \([0-9.]*\).*/\1/p' BENCH_reduce.json | tail -1)"
fi

out="$(mktemp)"
cfgout="$(mktemp)"
wireout=""
trap 'rm -f "$out" "$cfgout" "$wireout"' EXIT

echo "== hot-path benchmarks (internal/bench, internal/core, internal/sparse)"
go test ./internal/bench/ -run '^$' -bench 'BenchmarkReduceWarmQuick|BenchmarkReduceWarmObs|BenchmarkReduceWarmW4|BenchmarkReduceWarmTCP' -benchtime 2s -benchmem | tee "$out"
go test ./internal/core/ -run '^$' -bench 'BenchmarkReduce|BenchmarkConfigure|BenchmarkTreeAllreduce' -benchtime 1s -benchmem | tee -a "$out"
go test ./internal/sparse/ -run '^$' -bench 'BenchmarkCombineInto|BenchmarkGatherInto|BenchmarkTreeUnion$|BenchmarkUnionWithMaps' -benchtime 1s -benchmem | tee -a "$out"

echo "== wire benchmarks (internal/tcpnet, real loopback sockets)"
go test ./internal/tcpnet/ -run '^$' -bench 'BenchmarkFrameBatching' -benchtime 1s -benchmem | tee -a "$out"

echo "== wire quantization benchmarks (value codec: fp16 / int8)"
wireout="$(mktemp)"
go test ./internal/bench/ -run '^$' -bench 'BenchmarkReduceWarmFP16|BenchmarkReduceWarmINT8' -benchtime 2s -benchmem | tee "$wireout"
go test ./internal/sparse/ -run '^$' -bench 'BenchmarkQuantize|BenchmarkDequantize' -benchtime 1s -benchmem | tee -a "$wireout"
go test ./internal/comm/ -run '^$' -bench 'BenchmarkFloatsCodec' -benchtime 1s -benchmem | tee -a "$wireout"

echo "== configuration benchmarks (configure / reconfigure / index codec)"
go test ./internal/core/ -run '^$' -bench 'BenchmarkConfigure8x4x2|BenchmarkConfigureReduce16|BenchmarkConfigureReduce8x4x2|BenchmarkReconfigureWarm' -benchtime 2s -benchmem | tee "$cfgout"
go test ./internal/sparse/ -run '^$' -bench 'BenchmarkKeysCodec|BenchmarkNewSet|BenchmarkUnionMaps$' -benchtime 1s -benchmem | tee -a "$cfgout"

echo "== stream benchmarks (multi-tenant aggregate throughput, TCP)"
go test . -run '^$' -bench 'BenchmarkStreams(Serial|Concurrent)$' -benchtime 1s -benchmem | tee -a "$out"

echo "== figure benchmarks (quick scale, 1 iteration each)"
go test . -run '^$' -bench 'BenchmarkFigure' -benchtime 1x -benchmem | tee -a "$out"

# parse turns `go test -bench` output into the body of a JSON object,
# one entry per benchmark.
parse() {
    awk '
    BEGIN { first = 1 }
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        ns = ""; bop = ""; aop = ""; shards = ""; fpw = ""
        vb = ""; rvb = ""; vx = ""; nskb = ""
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")          ns     = $(i-1)
            if ($(i) == "B/op")           bop    = $(i-1)
            if ($(i) == "allocs/op")      aop    = $(i-1)
            if ($(i) == "shards/op")      shards = $(i-1)
            if ($(i) == "frames/writev")  fpw    = $(i-1)
            if ($(i) == "valbytes/op")    vb     = $(i-1)
            if ($(i) == "rawvalbytes/op") rvb    = $(i-1)
            if ($(i) == "valx")           vx     = $(i-1)
            if ($(i) == "ns/KB")          nskb   = $(i-1)
        }
        if (ns == "") next
        if (!first) printf ",\n"
        first = 0
        printf "    \"%s\": {\"ns_per_op\": %s", name, ns
        if (bop != "")    printf ", \"bytes_per_op\": %s", bop
        if (aop != "")    printf ", \"allocs_per_op\": %s", aop
        if (shards != "") printf ", \"shards_per_op\": %s", shards
        if (fpw != "")    printf ", \"frames_per_writev\": %s", fpw
        if (vb != "")     printf ", \"value_bytes_per_op\": %s", vb
        if (rvb != "")    printf ", \"raw_value_bytes_per_op\": %s", rvb
        if (vx != "")     printf ", \"value_compression\": %s", vx
        if (nskb != "")   printf ", \"ns_per_kb\": %s", nskb
        printf "}"
    }' "$1"
}

# record writes the tracked BENCH_*.json files from this run's output.
record() {
    # The JSON records both runs: "before" is the archived pre-optimisation
    # output (scripts/bench_baseline.txt, captured on the same machine before
    # the hot-path rework), "after" is this run.
    json="BENCH_reduce.json"
    baseline="scripts/bench_baseline.txt"
    {
        echo "{"
        if [ -f "$baseline" ]; then
            printf '  "before": {\n'
            parse "$baseline"
            printf '\n  },\n'
        fi
        printf '  "after": {\n'
        parse "$out"
        printf '\n  }\n}\n'
    } > "$json"
    echo "== wrote $json"

    # BENCH_config.json is the same record for the configuration pass:
    # "before" is the archived output of two baselines — the core
    # benchmarks before the configuration rework (raw 8-byte wire format,
    # eager scratch, tree-union + per-piece map scans) and the sparse
    # kernel benchmarks before the distribution sorts and the branch-free
    # merge (slices.Sort, two-pointer merge; same rotating inputs) —
    # "after" is this run.
    cfgjson="BENCH_config.json"
    {
        echo "{"
        if [ -f "$cfgbaseline" ]; then
            printf '  "before": {\n'
            parse "$cfgbaseline"
            printf '\n  },\n'
        fi
        printf '  "after": {\n'
        parse "$cfgout"
        printf '\n  }\n}\n'
    } > "$cfgjson"
    echo "== wrote $cfgjson"

    # BENCH_wire.json records the wire-level value numbers. For the
    # quantized rows raw_value_bytes_per_op is what one collective round
    # ships as raw float32 payload, value_bytes_per_op what the selected
    # codec ships, value_compression their ratio. "before" is the archived
    # output of the raw codec before the receive pool (an append per value,
    # a fresh buffer per decode; same rotating inputs) and of the value
    # codec before its fast paths (one 4096-value block per kernel; the
    # fast/ref rows now time both in one run), "after" is this run.
    wirejson="BENCH_wire.json"
    {
        echo "{"
        if [ -f "$wirebaseline" ]; then
            printf '  "before": {\n'
            parse "$wirebaseline"
            printf '\n  },\n'
        fi
        printf '  "after": {\n'
        parse "$wireout"
        printf '\n  }\n}\n'
    } > "$wirejson"
    echo "== wrote $wirejson"
}

# The archived pre-rework configuration baseline: "before" in
# BENCH_config.json and the anchor of the gate's speedup check.
cfgbaseline="scripts/bench_config_baseline.txt"
wirebaseline="scripts/bench_wire_baseline.txt"

if [ "$gate" = 0 ]; then
    record
else
    for b in BenchmarkReduceWarmQuick BenchmarkReduceWarmObs BenchmarkReduceWarmW4 BenchmarkReduceWarmTCP; do
        allocs="$(awk -v b="$b" '$1 ~ "^"b"(-[0-9]+)?$" { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }' "$out")"
        if [ -z "$allocs" ]; then
            echo "bench gate: $b did not report allocs/op" >&2
            exit 1
        fi
        if [ "$allocs" != "0" ]; then
            echo "bench gate: $b allocates ($allocs allocs/op, want 0)" >&2
            exit 1
        fi
    done
    # Quantized warm Reduce must stay allocation-free too: the value
    # codec runs entirely from the preallocated QVals arena and landing
    # buffers. So must the raw codec as the TCP transport runs it: encode
    # into a reused frame, decode through the receive pool, release.
    for b in BenchmarkReduceWarmFP16 BenchmarkReduceWarmINT8 BenchmarkFloatsCodec; do
        allocs="$(awk -v b="$b" '$1 ~ "^"b"(-[0-9]+)?$" { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }' "$wireout")"
        if [ -z "$allocs" ]; then
            echo "bench gate: $b did not report allocs/op" >&2
            exit 1
        fi
        if [ "$allocs" != "0" ]; then
            echo "bench gate: $b allocates ($allocs allocs/op, want 0)" >&2
            exit 1
        fi
    done

    # Value quantization gate: fp16 must ship >=1.7x fewer value-plane
    # payload bytes than the raw float32 encoding on the power-law
    # workload (the theoretical 2x minus per-piece header overhead).
    valx="$(awk '$1 ~ /^BenchmarkReduceWarmFP16(-[0-9]+)?$/ { for (i = 2; i <= NF; i++) if ($(i) == "valx") print $(i-1) }' "$wireout")"
    if [ -z "$valx" ]; then
        echo "bench gate: BenchmarkReduceWarmFP16 did not report valx" >&2
        exit 1
    fi
    if awk -v x="$valx" 'BEGIN { exit !(x < 1.7) }'; then
        echo "bench gate: fp16 value compression below floor: ${valx}x (want >=1.7x)" >&2
        exit 1
    fi
    echo "bench gate OK: fp16 value payload ${valx}x smaller than raw float32"

    # Value-codec speed gate: each kernel against its pre-fast-path
    # reference (quant_ref_test.go; the int8 decoder's is its Go form),
    # both timed in this run so the box's speed cancels out. The bar is
    # on the geometric mean of fast/ref ns/op over the kernel's inputs.
    # On amd64 the fast rows are the SSE2 kernels: runs on the
    # 2-vCPU box read at most 0.074 (fp16 encode), 0.121 (fp16 decode),
    # 0.214 (int8 encode) and 0.209 (int8 decode), where the Go forms
    # read about 0.33, 0.49, 0.66 and 1.0. One row can swing 2x with the
    # host's load, so each bar sits well above the assembly and below
    # its Go form: a build that lost the assembly fails. The /go rows
    # are reported, not gated.
    for entry in BenchmarkQuantizeFP16=0.2 BenchmarkDequantizeFP16=0.3 BenchmarkQuantizeINT8=0.4 BenchmarkDequantizeINT8=0.6; do
        b="${entry%%=*}"
        bar="${entry##*=}"
        ratio="$(awk -v b="$b" '$1 ~ "^"b"/" {
            n = $1; sub(/-[0-9]+$/, "", n); k = n; sub(/\/(fast|ref)$/, "", k)
            for (i = 2; i <= NF; i++) if ($(i) == "ns/op") { if (n ~ /\/fast$/) f[k] = $(i-1); else if (n ~ /\/ref$/) r[k] = $(i-1) }
        } END {
            c = 0; for (k in f) if (k in r) { s += log(f[k] / r[k]); c++ }
            if (c) printf "%.3f", exp(s / c)
        }' "$wireout")"
        if [ -z "$ratio" ]; then
            echo "bench gate: $b did not report fast/ref rows" >&2
            exit 1
        fi
        if awk -v x="$ratio" -v bar="$bar" 'BEGIN { exit !(x > bar) }'; then
            echo "bench gate: $b fast path lost its lead: ${ratio}x its reference's ns/op (want <=${bar}x)" >&2
            exit 1
        fi
        echo "bench gate OK: $b at ${ratio}x its reference's ns/op (bar ${bar}x)"
    done

    obs_ns="$(awk '/^BenchmarkReduceWarmObs/ { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") print $(i-1) }' "$out")"
    quick_ns="$(awk '/^BenchmarkReduceWarmQuick/ { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") print $(i-1) }' "$out")"
    if [ -n "$obs_ns" ] && [ -n "$quick_ns" ]; then
        echo "bench report: ReduceWarmObs / ReduceWarmQuick = $(awk -v o="$obs_ns" -v q="$quick_ns" 'BEGIN { printf "%.3f", o / q }') in this run (reported, not gated)"
    fi
    tol="${KYLIX_BENCH_TOLERANCE:-10}"
    if [ -n "$prev_obs_ns" ] && [ -n "$obs_ns" ]; then
        if awk -v cur="$obs_ns" -v prev="$prev_obs_ns" -v tol="$tol" \
            'BEGIN { exit !(cur > prev * (1 + tol / 100)) }'; then
            echo "bench gate: observed warm Reduce regressed: $obs_ns ns/op vs recorded $prev_obs_ns (+>${tol}%)" >&2
            exit 1
        fi
        echo "bench gate OK: warm Reduce (plain and observed) allocation-free; observed $obs_ns ns/op within ${tol}% of recorded $prev_obs_ns"
    else
        echo "bench gate OK: warm Reduce (plain and observed) allocation-free (no recorded WarmObs baseline to compare)"
    fi

    # Configuration-pass gate: the rework's contract is a >=1.5x
    # Configure8x4x2 speedup over the archived pre-rework baseline.
    # Anchoring to the fixed baseline (not the previous run's number)
    # keeps the gate stable on a 1-core box with ~10% run-to-run noise —
    # a self-referential gate ratchets on a lucky fast run and then
    # flakes on the next ordinary one.
    cfg_ns="$(awk '/^BenchmarkConfigure8x4x2/ { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") print $(i-1) }' "$cfgout")"
    if [ -z "$cfg_ns" ]; then
        echo "bench gate: BenchmarkConfigure8x4x2 did not run" >&2
        exit 1
    fi
    base_cfg_ns=""
    if [ -f "$cfgbaseline" ]; then
        base_cfg_ns="$(awk '/^BenchmarkConfigure8x4x2/ { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") print $(i-1) }' "$cfgbaseline")"
    fi
    if [ -n "$base_cfg_ns" ]; then
        if awk -v cur="$cfg_ns" -v base="$base_cfg_ns" -v tol="$tol" \
            'BEGIN { exit !(cur * 1.5 > base * (1 + tol / 100)) }'; then
            echo "bench gate: Configure8x4x2 speedup eroded: $cfg_ns ns/op vs pre-rework $base_cfg_ns (<1.5x with ${tol}% slack)" >&2
            exit 1
        fi
        echo "bench gate OK: Configure8x4x2 $cfg_ns ns/op is $(awk -v c="$cfg_ns" -v b="$base_cfg_ns" 'BEGIN { printf "%.2f", b / c }')x faster than pre-rework $base_cfg_ns"
    else
        echo "bench gate OK: Configure8x4x2 $cfg_ns ns/op (no archived baseline to compare)"
    fi

    # Index-codec gate: encode and decode sort through pooled scratch
    # and the caller's buffers, so a warm call allocates nothing.
    codec_allocs="$(awk '$1 ~ /^BenchmarkKeysCodec\// { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print $1 "=" $(i-1) }' "$cfgout")"
    if [ -z "$codec_allocs" ]; then
        echo "bench gate: BenchmarkKeysCodec did not report allocs/op" >&2
        exit 1
    fi
    for entry in $codec_allocs; do
        if [ "${entry##*=}" != "0" ]; then
            echo "bench gate: index codec allocates ($entry allocs/op, want 0)" >&2
            exit 1
        fi
    done
    echo "bench gate OK: index codec encode/decode allocation-free"

    # Incremental-reconfigure gate: a warm unchanged-sets Reconfigure
    # must stay a small fraction of the full fused ConfigureReduce on the
    # same 64-machine topology. Gated on the counts, which repeat exactly
    # on any host — at most 2 allocs/op and 1% of the full pass's B/op;
    # the wall-clock ratio (design target <=10%) depends on how the box
    # schedules 64 rank goroutines, so it is printed, not gated.
    field() { awk -v b="$1" -v u="$2" '$1 ~ "^"b"(-[0-9]+)?$" { for (i = 2; i <= NF; i++) if ($(i) == u) print $(i-1) }' "$cfgout"; }
    rec_ns="$(field BenchmarkReconfigureWarm ns/op)"
    rec_allocs="$(field BenchmarkReconfigureWarm allocs/op)"
    rec_bytes="$(field BenchmarkReconfigureWarm B/op)"
    full_ns="$(field BenchmarkConfigureReduce8x4x2 ns/op)"
    full_bytes="$(field BenchmarkConfigureReduce8x4x2 B/op)"
    if [ -z "$rec_allocs" ] || [ -z "$rec_bytes" ] || [ -z "$full_bytes" ]; then
        echo "bench gate: reconfigure benchmarks did not run" >&2
        exit 1
    fi
    if awk -v a="$rec_allocs" -v rb="$rec_bytes" -v fb="$full_bytes" 'BEGIN { exit !(a > 2 || rb > fb * 0.01) }'; then
        echo "bench gate: warm Reconfigure allocates too much: $rec_allocs allocs/op (want <=2), $rec_bytes B/op vs full ConfigureReduce $full_bytes (want <=1%)" >&2
        exit 1
    fi
    echo "bench gate OK: warm Reconfigure $rec_allocs allocs/op, $rec_bytes B/op (full ConfigureReduce $full_bytes B/op); $rec_ns ns/op is $(awk -v r="$rec_ns" -v f="$full_ns" 'BEGIN { printf "%.1f", 100 * r / f }')% of full $full_ns (not gated)"

    # Machine-owned arena gate: a fused pass over fresh sets on a warm
    # machine allocates routing state and results, not an arena, so its
    # B/op stays under the row archived from the last commit whose Configs
    # built their own (scripts/bench_baseline.txt).
    fused_bytes="$(field BenchmarkConfigureReduce16 B/op)"
    base_fused_bytes="$(awk '$1 ~ /^BenchmarkConfigureReduce16(-[0-9]+)?$/ { for (i = 2; i <= NF; i++) if ($(i) == "B/op") print $(i-1) }' scripts/bench_baseline.txt)"
    if [ -z "$fused_bytes" ] || [ -z "$base_fused_bytes" ] || [ "$fused_bytes" -gt "$base_fused_bytes" ]; then
        echo "bench gate: ConfigureReduce16 allocates ${fused_bytes:-?} B/op, archived per-Config-arena row ${base_fused_bytes:-?}" >&2
        exit 1
    fi
    echo "bench gate OK: ConfigureReduce16 $fused_bytes B/op (archived per-Config-arena row $base_fused_bytes)"

    # Multi-tenant throughput gate: four concurrent tenant passes over
    # one shared TCP fabric must beat the same four passes run
    # back-to-back — overlapping socket waits is the point of
    # multiplexing streams. On a single core only the waits overlap
    # (measured ~1.1-1.4x depending on box load), so the bar is just
    # "strictly beats serial" with the tolerance as noise slack; with
    # >=4 cores compute overlaps too and the bar rises to >=1.5x. A
    # scheduler regression that serializes streams lands at <=1.0x and
    # fails either way.
    ser_ns="$(awk '$1 ~ /^BenchmarkStreamsSerial(-[0-9]+)?$/ { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") print $(i-1) }' "$out")"
    conc_ns="$(awk '$1 ~ /^BenchmarkStreamsConcurrent(-[0-9]+)?$/ { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") print $(i-1) }' "$out")"
    if [ -z "$ser_ns" ] || [ -z "$conc_ns" ]; then
        echo "bench gate: stream throughput benchmarks did not run" >&2
        exit 1
    fi
    stream_factor=1.1
    cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
    if [ "$cores" -ge 4 ]; then
        stream_factor=1.5
    fi
    if awk -v c="$conc_ns" -v s="$ser_ns" -v f="$stream_factor" -v tol="$tol" \
        'BEGIN { exit !(c * f > s * (1 + tol / 100)) }'; then
        echo "bench gate: concurrent streams do not beat serial: $conc_ns ns/op vs $ser_ns (want >=${stream_factor}x with ${tol}% slack on $cores core(s))" >&2
        exit 1
    fi
    echo "bench gate OK: concurrent streams $conc_ns ns/op are $(awk -v c="$conc_ns" -v s="$ser_ns" 'BEGIN { printf "%.2f", s / c }')x serial $ser_ns on $cores core(s)"

    # Wire-coalescing gate: bursts of small frames over real loopback
    # must average >=2 frames per writev — the batching writer's floor.
    fpw="$(awk '$1 ~ /^BenchmarkFrameBatching(-[0-9]+)?$/ { for (i = 2; i <= NF; i++) if ($(i) == "frames/writev") print $(i-1) }' "$out")"
    if [ -z "$fpw" ]; then
        echo "bench gate: BenchmarkFrameBatching did not report frames/writev" >&2
        exit 1
    fi
    if awk -v f="$fpw" 'BEGIN { exit !(f < 2) }'; then
        echo "bench gate: frame coalescing below floor: $fpw frames/writev (want >=2)" >&2
        exit 1
    fi
    echo "bench gate OK: wire batching at $fpw frames/writev"

    # Figure 2 shape gate: over real loopback sockets the largest packet
    # must move more bits per second than the smallest. This is the
    # wall-clock half of TestFigure2Measured, which under go test ./...
    # only checks that the table is produced.
    small_gbps="$(awk '$1 ~ /^BenchmarkFigure2Measured(-[0-9]+)?$/ { for (i = 2; i <= NF; i++) if ($(i) == "smallpkt-Gbps") print $(i-1) }' "$out")"
    large_gbps="$(awk '$1 ~ /^BenchmarkFigure2Measured(-[0-9]+)?$/ { for (i = 2; i <= NF; i++) if ($(i) == "largepkt-Gbps") print $(i-1) }' "$out")"
    if [ -z "$small_gbps" ] || [ -z "$large_gbps" ]; then
        echo "bench gate: BenchmarkFigure2Measured did not report its throughputs" >&2
        exit 1
    fi
    if awk -v s="$small_gbps" -v l="$large_gbps" 'BEGIN { exit !(l <= s) }'; then
        echo "bench gate: no loopback throughput rise with packet size: $small_gbps Gbps at 1 KB vs $large_gbps Gbps at 4 MB" >&2
        exit 1
    fi
    echo "bench gate OK: loopback throughput rises with packet size ($small_gbps Gbps at 1 KB, $large_gbps Gbps at 4 MB)"
fi
