# Developer entry points. `make check` is the full gate a PR must pass,
# and scripts/check.sh is its one definition: vet (including the
# kylix-vet invariant analyzers), build, the whole test suite, the race
# lane over the packages with the heaviest concurrency, the chaos soaks,
# and the allocation gate on the warm reduction hot path. The stage
# targets below run single stages of that script, so a stage's package
# list exists in one place and CI (`make check`) and local runs agree.

GO ?= go

.PHONY: check vet build test race soak benchgate bench profile fuzz lint

check:
	scripts/check.sh

vet build test race soak benchgate:
	scripts/check.sh $@

# Hot-path benchmarks with memory accounting; records BENCH_*.json (the
# gate in `make check` runs the same benchmarks and writes nothing).
bench:
	scripts/bench.sh

# Optional deep-lint lane: staticcheck + govulncheck, pinned via go run.
# Needs network access to the module proxy; skips gracefully offline.
lint:
	scripts/lint.sh

# CPU + heap profiles of the paper-evaluation run at quick scale.
# Inspect with: go tool pprof cpu.pprof (or mem.pprof).
profile:
	$(GO) run ./cmd/kylix-bench -scale quick -exp fig6,fig8 -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof cpu.pprof"

# A quick pass over every fuzz target: the fault fabric's determinism,
# the payload decoder, the mailbox model, the TCP frame reader, the
# index codec, NewSet, and the value codec's bit identity with its
# reference (each input sweeps 65,536 float32 words, so the fuzzer walks
# the full 2^32 over time). The two decoders of peer bytes run with the
# heap target held at 256 MiB, so a run stays small on a shared box;
# what they may allocate on a short input is pinned by the tier-1
# TestDecodeAllocatesWhatTheBytesYield, whose inputs seed both corpora.
fuzz:
	$(GO) test -run FuzzDecide -fuzz FuzzDecide -fuzztime 10s ./internal/faultnet/
	GOMEMLIMIT=256MiB $(GO) test -run FuzzDecodePayload -fuzz FuzzDecodePayload -fuzztime 10s ./internal/comm/
	$(GO) test -run FuzzMailbox -fuzz FuzzMailbox -fuzztime 10s ./internal/comm/
	$(GO) test -run FuzzFrameStream -fuzz FuzzFrameStream -fuzztime 10s ./internal/tcpnet/
	GOMEMLIMIT=256MiB $(GO) test -run FuzzKeysCodec -fuzz FuzzKeysCodec -fuzztime 10s ./internal/sparse/
	$(GO) test -run FuzzNewSet -fuzz FuzzNewSet -fuzztime 10s ./internal/sparse/
	$(GO) test -run FuzzQuantizeMatchesReference -fuzz FuzzQuantizeMatchesReference -fuzztime 10s ./internal/sparse/
