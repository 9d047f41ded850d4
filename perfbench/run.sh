#!/usr/bin/env bash
# Builds the benchmark and the hgserve binary from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload mix-integral --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binaries, Go build cache) stays under
# .bench_build/ in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
go -C perfbench build -o "$out/hgserve" hypertree/cmd/hgserve >&2
exec "$out/perfbench" -root "$root" "$@"
