#!/usr/bin/env bash
# Regenerates the profile-guided-optimization profile that `go build`
# applies to cmd/reproduce and hostbench/run.sh applies to the host
# benchmark:
#
#   scripts/regen_pgo.sh [out]     (default: cmd/reproduce/default.pgo)
#
# It builds reproduce with -pgo=off, so the new profile does not inherit
# the old one's inlining decisions, checks that the build reproduces
# reproduce_output.txt, and profiles that one cold serial run of the whole
# catalog (-cache off -parallel 1). A profile keys its hot call edges to
# line offsets within functions, so it goes stale when the hot path is
# edited. Keep a new profile only if it beats the committed one over
# alternated hostbench runs, and refresh BENCH_hostbench.jsonl with it.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-cmd/reproduce/default.pgo}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -pgo=off -o "$tmp/reproduce" ./cmd/reproduce
"$tmp/reproduce" -cache off -parallel 1 -cpuprofile "$tmp/cpu.pprof" >"$tmp/out.txt"
if ! diff <(head -n -1 reproduce_output.txt) <(head -n -1 "$tmp/out.txt") >/dev/null; then
  echo "regen_pgo: FAILED — the profiled run does not reproduce reproduce_output.txt" >&2
  exit 1
fi
mv "$tmp/cpu.pprof" "$out"
echo "regen_pgo: wrote $out ($(tail -n 1 "$tmp/out.txt"))"
