#!/usr/bin/env sh
# The PR gate, and its only definition: `make check`, CI and a bare
# `scripts/check.sh` all run this file, so they vet, test and race the
# same packages. With arguments it runs just those stages
# (`scripts/check.sh vet race`); the Makefile's vet, build, test, race,
# soak and benchgate targets are aliases for exactly that.
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

stage_build() {
    echo "== go build ./..."
    go build ./...
}

stage_test() {
    echo "== go test ./..."
    go test ./...
}

# Short-mode race lane over the concurrency-critical packages: comm and
# core since the mailbox free lists and the arena flip are exactly where
# a data race would corrupt results silently, membership for its
# ticker-vs-receiver agents, par for its own pool tests (core no longer
# uses it) and stream for the tenant registry's admission and id claims;
# then the root package's stream-lifecycle tests, the
# cross-process tenancy contract (Node.Stream tenants on ListenNode
# sockets) and the warm-Reduce-over-TCP workload (arena buffers refilled
# right behind the transport, digests against the in-memory run).
stage_race() {
    echo "== go test -race -short (comm, core, faultnet, tcpnet, replica, obs, membership, par, stream)"
    go test -race -short ./internal/comm/... ./internal/core/... ./internal/faultnet/... ./internal/tcpnet/... ./internal/replica/... ./internal/obs/... ./internal/membership/... ./internal/par/... ./internal/stream/...
    echo "== go test -race (stream lifecycle: concurrent tenants, close hammer; Node.Stream over sockets; warm Reduce over TCP; elastic churn in memory; drifting sets under faults in memory)"
    go test -race -run 'TestStreamIsolation64|TestStreamBackpressure|TestStreamCloseSemantics|TestClusterClose|TestNodeStreamsOverListenNode|TestNodeStreamAndOpenStreamNeverShareAnID|TestWarmTCPMatchesMemory|TestElasticChurnMemory|TestMinibatchChaosSoakMemory|TestReconfigureChaosSoakMemory' -count=1 -timeout 600s .
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

if [ $# -eq 0 ]; then
    set -- vet build test race soak benchgate
fi
for stage in "$@"; do
    case "$stage" in
        vet|build|test|race|soak|benchgate) "stage_$stage" ;;
        *) echo "check: unknown stage '$stage' (have: vet build test race soak benchgate)" >&2; exit 2 ;;
    esac
done
echo "check OK"
