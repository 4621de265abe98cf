#!/usr/bin/env bash
# Builds vmat-server, vmat-worker and the vmatbench command from this
# checkout into .bench_build/, then runs vmatbench with the given
# arguments. Run it from the repository root:
#
#   bash vmatbench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
#   bash vmatbench/run.sh compare base.jsonl change.jsonl
#
# Everything the build and the runs write stays under .bench_build/,
# including the Go build cache.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local GOWORK=off GOENV=off

go build -o "$out/bin/" ./cmd/vmat-server ./cmd/vmat-worker
(cd "$root/vmatbench" && go build -o "$out/bin/vmatbench" .)

exec "$out/bin/vmatbench" --bin "$out/bin" "$@"
