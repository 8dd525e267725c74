#!/usr/bin/env bash
# Events/s ratchet: a fresh cold reproduce must not regress simulator
# throughput past a noise band below the committed BENCH_reproduce.json
# record.
#
#   scripts/bench_ratchet.sh            enforce (CI)
#   scripts/bench_ratchet.sh -print     print fresh vs committed, no gate
#
# The gate compares events_per_second (total simulated events / host wall
# time, cold, cache off) because it is the one number that normalizes out
# catalog growth: adding experiments raises wall time but not events/s.
# TOLERANCE absorbs host noise — shared CI runners jitter 20-30% — while
# still catching real regressions (the scheduler rewrite this ratchet
# guards was a >2x move). Raise the committed record by re-running
#   go run ./cmd/reproduce -cache off
# on the reference host; the floor only moves up via that file.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=BENCH_reproduce.json
mode=${1:-}

committed=$(jq -e .events_per_second "$baseline")
if ! jq -e '.events_per_second > 0 and .total_sim_events > 0' "$baseline" >/dev/null; then
  echo "bench ratchet: FAILED — $baseline has no event throughput record" >&2
  echo "(regenerate with: go run ./cmd/reproduce -cache off)" >&2
  exit 1
fi

fresh_json=$(mktemp)
trap 'rm -f "$fresh_json"' EXIT
# Cold, cache off: every cell simulates, so events_per_second measures the
# engine, not the memo cache. Stdout is discarded — the determinism CI job
# owns the byte-identity check.
go run ./cmd/reproduce -cache off -bench "$fresh_json" >/dev/null

fresh=$(jq -e .events_per_second "$fresh_json")
events=$(jq -e .total_sim_events "$fresh_json")
if [ "$events" -eq 0 ]; then
  echo "bench ratchet: FAILED — fresh run recorded zero simulated events" >&2
  exit 1
fi

# Supervision hygiene: with fault injection off, no cell may fail — a
# nonzero quarantine count here means real cells are failing on a healthy
# run while the rest of the sweep carries on without them.
if ! jq -e '.quarantined == 0' "$fresh_json" >/dev/null; then
  echo "bench ratchet: FAILED — faults-off run quarantined cells:" >&2
  jq '{quarantined}' "$fresh_json" >&2
  exit 1
fi

TOLERANCE=${TOLERANCE:-0.7}
floor=$(awk -v c="$committed" -v t="$TOLERANCE" 'BEGIN { printf "%.0f", c * t }')
printf 'bench ratchet: fresh %.0f events/s, committed %.0f, floor %.0f (tolerance %s)\n' \
  "$fresh" "$committed" "$floor" "$TOLERANCE"

if [ "$mode" = "-print" ]; then
  exit 0
fi
if awk -v f="$fresh" -v fl="$floor" 'BEGIN { exit !(f < fl) }'; then
  echo "bench ratchet: FAILED — events/s regressed below the floor" >&2
  echo "(committed record lives in $baseline; if the regression is intended," >&2
  echo " regenerate it with: go run ./cmd/reproduce -cache off)" >&2
  exit 1
fi

# Large-N scheduler floor: at 512 runnable contexts the tournament-tree run
# queue must hold at least a 5x per-handoff lead over the flat rescan-min
# baseline (~20x on the reference host; the 4-ary heap it replaced held
# ~7x). The full-catalog events/s gate above cannot see this — catalog
# machines run at most 16 threads, where tree and rescan are comparable.
MIN_TREE_SPEEDUP=${MIN_TREE_SPEEDUP:-5.0}
sched=$(go test ./internal/sim/ -run '^$' \
  -bench 'SchedTreeN512$|SchedFlatRescanN512$' -benchtime 500000x 2>/dev/null)
tree_ns=$(echo "$sched" | awk '/BenchmarkSchedTreeN512/ {print $3}')
flat_ns=$(echo "$sched" | awk '/BenchmarkSchedFlatRescanN512/ {print $3}')
if [ -z "$tree_ns" ] || [ -z "$flat_ns" ]; then
  echo "bench ratchet: FAILED — could not read the N=512 scheduler benchmarks" >&2
  echo "$sched" >&2
  exit 1
fi
printf 'bench ratchet: sched@512 tree %.0f ns/op, flat rescan %.0f ns/op (%.1fx, floor %sx)\n' \
  "$tree_ns" "$flat_ns" "$(awk -v h="$tree_ns" -v f="$flat_ns" 'BEGIN { print f/h }')" "$MIN_TREE_SPEEDUP"
if awk -v h="$tree_ns" -v f="$flat_ns" -v m="$MIN_TREE_SPEEDUP" 'BEGIN { exit !(f < h * m) }'; then
  echo "bench ratchet: FAILED — tree scheduler lead at 512 contexts fell below ${MIN_TREE_SPEEDUP}x" >&2
  exit 1
fi
echo "bench ratchet: OK"
