#!/usr/bin/env bash
# Probe-layer overhead guard over the simulator's hottest path (charge via
# the batched Compute fast path), using the benchmark pair in
# internal/sim/bench_test.go:
#
#   BenchmarkHotPathProbesOff   production path: one nil test added by the
#                               probe layer
#   BenchmarkHotPathProbesOn    armed path: nil test + per-cycle phase
#                               attribution
#
# The gate bounds the *armed* path to within MAX_PCT percent of the disarmed
# one (default 30 — the attribution increment costs ~15% of a 5 ns op on the
# reference host; a blowout here means someone put allocation, hashing, or
# locking on the charge path). The disarmed path's own overhead (one nil
# test) cannot be measured inside one build; DESIGN.md §14 records the
# measured pair, whose armed/disarmed difference was below host noise.
# Per-run minima over COUNT repetitions de-noise shared runners.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT=${COUNT:-7}
MAX_PCT=${MAX_PCT:-30}

out=$(go test ./internal/sim -run '^$' -bench 'BenchmarkHotPathProbes(Off|On)$' \
  -benchtime 2000000x -count "$COUNT")
echo "$out"

min_ns() {
  echo "$out" | awk -v name="$1" '$1 ~ name { if (best == "" || $3 < best) best = $3 } END { print best }'
}
off=$(min_ns '^BenchmarkHotPathProbesOff')
on=$(min_ns '^BenchmarkHotPathProbesOn')
if [ -z "$off" ] || [ -z "$on" ]; then
  echo "probe overhead: FAILED — could not parse benchmark output" >&2
  exit 1
fi

# Both paths must be allocation-free.
if echo "$out" | awk '$1 ~ /^BenchmarkHotPathProbes/ && $7 != 0 { bad = 1 } END { exit !bad }'; then
  echo "probe overhead: FAILED — hot path allocates" >&2
  exit 1
fi

pct=$(awk -v on="$on" -v off="$off" 'BEGIN { printf "%.1f", (on / off - 1) * 100 }')
echo "probe overhead: off ${off} ns/op, on ${on} ns/op (+${pct}%, limit ${MAX_PCT}%)"
if awk -v on="$on" -v off="$off" -v max="$MAX_PCT" 'BEGIN { exit !(on > off * (1 + max / 100)) }'; then
  echo "probe overhead: FAILED — armed probes exceed the hot-path budget" >&2
  exit 1
fi
echo "probe overhead: OK"
