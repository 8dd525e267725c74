#!/usr/bin/env bash
# Builds the host benchmark from the checkout it sits in and runs it:
#
#   bash hostbench/run.sh --workload stamp-8t --seed 1 --seconds 20 --trace 0
#
# The binary is built with the profile cmd/reproduce ships
# (-pgo=cmd/reproduce/default.pgo), so it measures the same profile-guided
# build users run. Everything the build and the run write stays inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build): the Go build
# cache, the binary, the memo stores and the trace file.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd hostbench && go build -trimpath -pgo="$root/cmd/reproduce/default.pgo" -o "$out/hostbench" .)
exec "$out/hostbench" --out "$out/hostbench-run" "$@"
