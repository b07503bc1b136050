# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race vet lint chaos smbsimd-smoke perfbench-smoke bench bench-json bench-assert panels lowerbounds arch faults obs-demo report examples clean

all: build vet lint test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: gofmt hygiene plus the smblint suite (determinism,
# seeding, wall-clock, hot-path allocation, concurrency fence, cursor
# sticky-error and doc contracts — see DESIGN.md §11; the
# compiler-diagnostic escapecheck/hotcall layer is §16). Runs a full
# build first so escapecheck replays -m=2 diagnostics from a warm build
# cache. Fails on any diagnostic.
lint: build
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/smblint ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-sensitive harness packages and
# the shared-state providers they drive, including the sharded runtime
# and its daemon.
test-race:
	$(GO) test -race ./internal/sim/... ./internal/faults/... ./internal/cli/... ./internal/traffic/... ./internal/adversary/... ./internal/lease ./internal/shard ./internal/obs ./cmd/smbsimd

# Sharded-runtime smoke (DESIGN.md §17): the shard and daemon suites
# under the race detector — SPSC rings, pool manager, stream lifecycle,
# SIGTERM drain, mid-stream disconnect — then the seeded in-process
# loadgen selftest at 1 and 4 shards, where every shard must be
# bit-identical to its single-threaded sim.RunTrace oracle. The -race
# selftest run keeps the wall-clock numbers honest about what the
# detector costs; scaling assertions (-minscale) are left to operators
# who know their core count.
smbsimd-smoke:
	$(GO) test -race ./internal/shard ./internal/obs ./cmd/smbsimd
	$(GO) run -race ./cmd/smbsimd -selftest -shards 4 -slots 5000 -reps 2

# The repository benchmark's own tests (perfbench/README.md): unit tests
# of its statistics plus a smoke run that builds smbsimd and runs every
# workload, untraced and traced, for a few seconds with every op's
# output checked. A change that breaks a contract the benchmark relies
# on fails here rather than only in a full benchmark run.
perfbench-smoke:
	cd perfbench && $(GO) test ./...

# Crash-chaos harness for the lease ledger: fork real worker
# subprocesses, SIGKILL them mid-cell, truncate their journals at random
# byte offsets, restart them, and require the merged sweep to be
# bit-identical to a single-process run (DESIGN.md §13). Replay a
# schedule with SMBM_CHAOS_SEED=<n> make chaos.
chaos:
	$(GO) test ./internal/lease/chaostest -count=1 -v -run TestChaos

# Full benchmark pass (tables, figures, substrates, ablations).
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable performance snapshot: per-policy engine micro-benches
# (ns/slot, allocs/op) and per-panel sweep-cell costs (cells/sec). See
# DESIGN.md §9 for methodology. BENCH_pr8.json (unified engine + combined
# model, DESIGN.md §15) sits next to BENCH_pr7.json (batched arrival
# phase) and BENCH_baseline.json (per-packet seed) so the speedups are
# diffable.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_pr8.json

# Fast overhead gate: re-measure the per-policy micro-benchmarks and
# fail if any policy's steady state (observability detached) allocates.
bench-assert:
	$(GO) run ./cmd/benchjson -benchtime 100ms -assert-zero-allocs -out /dev/null

# Regenerate the paper's evaluation artifacts.
panels:
	$(GO) run ./cmd/smbsim

lowerbounds:
	$(GO) run ./cmd/lowerbound

arch:
	$(GO) run ./cmd/smbsim -experiment arch

faults:
	$(GO) run ./cmd/smbsim -experiment faults

# Observability demo: one small panel with decision counters, the last
# 32 decision events per replay dumped to stderr, and the pprof/expvar
# endpoint live on localhost:6060 for the duration (DESIGN.md §12).
obs-demo:
	$(GO) run ./cmd/smbsim -experiment fig5.1 -slots 2000 -seeds 1 \
		-obs -trace-events 32 -pprof localhost:6060

# Regenerate EXPERIMENTS.md from a fresh evaluation run.
report:
	$(GO) run ./cmd/report > EXPERIMENTS.md

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heteroservices
	$(GO) run ./examples/valuetiers
	$(GO) run ./examples/adversarial
	$(GO) run ./examples/theorem7

clean:
	$(GO) clean ./...
