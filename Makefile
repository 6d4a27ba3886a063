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

# fuzz is not in `make check`'s default stages; CI runs it as its own job.
vet build test race soak benchgate fuzz:
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
