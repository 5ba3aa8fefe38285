#!/usr/bin/env bash
# Build the benchmark and the ivnsimd daemon from this checkout, then run
# the benchmark with the given arguments, from the checkout's root:
#
#   bash _perfbench/run.sh --workload cib_sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-modcacherw
# Go telemetry off: no counter files and no background upload process.
printf off > "$out/config/go/telemetry/mode"
go build -o "$out/bin/ivnsimd" ./cmd/ivnsimd
(cd _perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --daemon-bin "$out/bin/ivnsimd" --work "$out/work" "$@"
