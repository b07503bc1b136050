#!/usr/bin/env bash
# Builds the benchmark and the smbsimd daemon from this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim_proc --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# and module caches, the go command's config and telemetry files, and
# the run's sockets and span files stay under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# In a fresh config dir telemetry defaults to "local", and the go
# command then forks a detached telemetry sidecar that outlives this
# script. "go telemetry off" itself starts no sidecar.
go telemetry off

go build -o "$out/smbsimd" ./cmd/smbsimd
(cd perfbench && go build -o "$out/perfbench" .)
# Relative paths keep the daemon's unix socket name short.
exec "$out/perfbench" -daemon .bench_build/smbsimd -workdir .bench_build/perfbench-run "$@"
