#!/usr/bin/env sh
# The PR gate, and its only definition: `make check`, CI and a bare
# `scripts/check.sh` all run this file, so they vet, test and race the
# same packages. With arguments it runs just those stages
# (`scripts/check.sh vet race`); the Makefile's vet, build, test, race,
# soak, benchgate and fuzz targets are aliases for exactly that. The
# fuzz stage runs only when named.
set -eu

cd "$(dirname "$0")/.."

# Standard go vet plus the project invariant suite run through the same
# vet driver, so results are per-package cached and keyed on the tool
# binary's hash.
stage_vet() {
    echo "== go vet ./..."
    go vet ./...
    echo "== kylix-vet: five analyzers, one driver (hotpathalloc, determinism, commcheck, goleak, lockorder)"
    mkdir -p bin
    go build -o bin/kylix-vet ./cmd/kylix-vet
    go vet -vettool=bin/kylix-vet ./...
}

# The value codec's fast paths are amd64 assembly (internal/sparse/
# quant_amd64.s, checked by go vet's asmdecl pass in stage_vet); every
# other GOARCH runs their Go forms, so the build stage also vets a 64-bit
# and builds a 32-bit port. benchmark/ is left out of the 32-bit build:
# benchmark/probes.go writes 1<<32 into an int, which does not compile
# where int is 32 bits.
stage_build() {
    echo "== go build ./..."
    go build ./...
    echo "== GOARCH=arm64 go vet ./... (the codec's Go forms)"
    GOARCH=arm64 go vet ./...
    echo "== GOARCH=386 go build (every package but benchmark/)"
    GOARCH=386 go build $(go list ./... | grep -v '^kylix/benchmark$')
}

stage_test() {
    echo "== go test ./..."
    go test ./...
}

# Short-mode race lane over the concurrency-critical packages: comm and
# core since the mailbox free lists and the arena flip are exactly where
# a data race would corrupt results silently, membership for its
# ticker-vs-receiver agents, par for its own pool tests (core no longer
# uses it), stream for the tenant registry's admission and id claims, and
# sparse, whose -race build must link the codec's Go forms (the detector
# cannot see inside assembly: TestRaceBuildRunsTheGoForms);
# then the root package's stream-lifecycle tests, the
# cross-process tenancy contract (Node.Stream tenants on ListenNode
# sockets) and the warm-Reduce-over-TCP workload (arena buffers refilled
# right behind the transport, digests against the in-memory run).
stage_race() {
    echo "== go test -race -short (comm, core, faultnet, tcpnet, replica, obs, membership, par, stream, sparse)"
    go test -race -short ./internal/comm/... ./internal/core/... ./internal/faultnet/... ./internal/tcpnet/... ./internal/replica/... ./internal/obs/... ./internal/membership/... ./internal/par/... ./internal/stream/... ./internal/sparse/...
    echo "== go test -race (stream lifecycle: concurrent tenants, close hammer; Node.Stream over sockets; warm Reduce over TCP; elastic churn in memory; drifting sets under faults in memory; the int8 arena under faults in memory)"
    go test -race -run 'TestStreamIsolation64|TestStreamBackpressure|TestStreamCloseSemantics|TestClusterClose|TestNodeStreamsOverListenNode|TestNodeStreamAndOpenStreamNeverShareAnID|TestWarmTCPMatchesMemory|TestElasticChurnMemory|TestMinibatchChaosSoakMemory|TestReconfigureChaosSoakMemory|TestQuantizedChaosSoakINT8$' -count=1 -timeout 600s .
}

# Scripted joins, leaves and replacements with machines and the
# coordinator killed mid-transition, and concurrent tenant streams under
# faults, on both transports, checked bit-identical against a fresh
# cluster.
stage_soak() {
    echo "== elastic membership chaos soak (both transports)"
    go test -run 'TestElasticChurn|TestTCPChurnSoak' -count=1 . ./internal/replica/
    echo "== multi-tenant stream chaos soak (both transports)"
    go test -run 'TestStreamIsolationChaos' -count=1 .
}

stage_benchgate() {
    echo "== bench gate (warm Reduce must be allocation-free)"
    scripts/bench.sh --gate
}

# A quick pass over every fuzz target: the fault fabric's determinism,
# the payload decoder, the mailbox model, the TCP frame reader, the
# index codec, NewSet, the value codec's bit identity with its
# reference (each input sweeps 65,536 float32 words, so the fuzzer walks
# the full 2^32 over time) and the union kernel's maps under scratch
# reuse. The two decoders of peer bytes run with the heap target held at
# 256 MiB, so a run stays small on a shared box; what they may allocate
# on a short input is pinned by the tier-1
# TestDecodeAllocatesWhatTheBytesYield, whose inputs seed both corpora.
# The list is kept by hand, so before fuzzing anything the stage fails,
# naming the target, on any `func Fuzz...` in a test file it leaves out.
# Not in the default stage list: CI runs it as its own job.
stage_fuzz() {
    targets() {
        fuzz FuzzDecide ./internal/faultnet/
        fuzz FuzzDecodePayload ./internal/comm/ GOMEMLIMIT=256MiB
        fuzz FuzzMailbox ./internal/comm/
        fuzz FuzzFrameStream ./internal/tcpnet/
        fuzz FuzzKeysCodec ./internal/sparse/ GOMEMLIMIT=256MiB
        fuzz FuzzNewSet ./internal/sparse/
        fuzz FuzzQuantizeMatchesReference ./internal/sparse/
        fuzz FuzzUnionMaps ./internal/sparse/
    }
    listed=" "
    fuzz() { listed="$listed$1 "; }
    targets
    for t in $(grep -rhoE --include='*_test.go' '^func Fuzz[A-Za-z0-9_]+' . | cut -c6-); do
        case "$listed" in
            *" $t "*) ;;
            *) echo "check: fuzz target $t is missing from stage_fuzz's list" >&2; exit 1 ;;
        esac
    done
    fuzz() { # target package [env]
        echo "== fuzz $1 ($2)"
        env ${3:-} go test -run "^$1\$" -fuzz "^$1\$" -fuzztime 10s "$2"
    }
    targets
}

if [ $# -eq 0 ]; then
    set -- vet build test race soak benchgate
fi
for stage in "$@"; do
    case "$stage" in
        vet|build|test|race|soak|benchgate|fuzz) "stage_$stage" ;;
        *) echo "check: unknown stage '$stage' (have: vet build test race soak benchgate fuzz)" >&2; exit 2 ;;
    esac
done
echo "check OK"
