#!/usr/bin/env bash
# Speed gate: hostbench against the committed baseline, plus the N=512
# scheduler micro gate.
#
#   scripts/bench_ratchet.sh
#
# For each workload BENCHMARK.json declares, hostbench runs three times for
# its run_seconds window (seeds 1, 2 and 3, untraced), and the gate reads
# the median of the three runs on each metric. It fails if
#   - any run reports "correct" other than true,
#   - the runs together fail a larger share of their ops than the baseline
#     runs did, or
#   - the median is worse than the baseline's on any end_to_end metric by
#     more than that metric's bound, in the direction its "better" field
#     gives.
# One run can swing past a bound on host noise alone (warm-serve's
# op_ref_p90 and setup_s, stamp-8t's ~40 ms setup_s); the median of three
# cannot be moved by one outlying run.
# Workloads, metrics, bounds and the window all come from BENCHMARK.json.
# Metrics are in hostbench's reference units, which divide out most host
# drift, so the committed baseline holds across hosts.
#
# The baseline is BENCH_hostbench.jsonl: one line per workload, recorded
# the same way: the seeds, the window, whether every run was correct, the
# summed attempted and failed ops, and each metric's median over the runs.
# Every gate run writes its median lines to .bench_build/bench_fresh.jsonl
# and each run's hostbench line to .bench_build/bench_runs.jsonl; to move
# the baseline, copy bench_fresh.jsonl over BENCH_hostbench.jsonl in a
# change that says why.
set -euo pipefail
cd "$(dirname "$0")/.."

spec=BENCHMARK.json
baseline=BENCH_hostbench.jsonl
fresh=.bench_build/bench_fresh.jsonl
runs=.bench_build/bench_runs.jsonl
seeds=(1 2 3)
seconds=$(jq -e .run_seconds "$spec")
mkdir -p "$(dirname "$fresh")"
: >"$fresh"
: >"$runs"

failed=0
for w in $(jq -r '.workloads[].name' "$spec"); do
  lines=""
  for seed in "${seeds[@]}"; do
    report=$(bash hostbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) || {
      echo "bench ratchet: FAILED — hostbench could not run $w (seed $seed)" >&2
      exit 1
    }
    head -n -1 <<<"$report"
    line=$(tail -n 1 <<<"$report" |
      jq -c --arg w "$w" --argjson seed "$seed" --argjson s "$seconds" '{workload: $w, seed: $seed, seconds: $s} + .')
    echo "$line" >>"$runs"
    lines+="$line"$'\n'
  done
  # The median run on each metric; the ops and their failures summed.
  new=$(jq -cs '
    def median: sort | .[length / 2 | floor];
    {workload: .[0].workload, seeds: map(.seed), seconds: .[0].seconds,
     correct: all(.correct == true), attempted: map(.attempted) | add,
     failed: map(.failed) | add,
     metrics: (map(.metrics | to_entries[]) | group_by(.key)
       | map({key: .[0].key,
              value: {value: map(.value.value) | median, unit: .[0].value.unit}})
       | from_entries)}' <<<"$lines")
  echo "$new" >>"$fresh"
  base=$(jq -c --arg w "$w" 'select(.workload == $w)' "$baseline")
  if [ -z "$base" ]; then
    echo "bench ratchet: FAILED — $baseline has no $w line" >&2
    exit 1
  fi
  # One line per check; a line starting with FAIL names what regressed.
  verdict=$(jq -r --argjson base "$base" --argjson new "$new" '
    def share(r): if r.attempted > 0 then r.failed / r.attempted else 0 end;
    def num: . * 1000 | round / 1000;
    def pct: . * 1000 | round / 10;
    $new.workload as $w
    | (if $new.correct == true then "ok   \($w) correct"
       else "FAIL \($w) correct is \($new.correct)" end),
      "\(if share($new) > share($base) then "FAIL" else "ok  " end) \($w) failed ops \($new.failed)/\($new.attempted), baseline \($base.failed)/\($base.attempted)",
      (.end_to_end[] as $m
       | $base.metrics[$m.name].value as $b
       | $new.metrics[$m.name].value as $f
       | if $b == null or $f == null then "FAIL \($w) \($m.name) missing"
         else (if $m.better == "lower" then ($f - $b) / $b else ($b - $f) / $b end) as $worse
         | "\(if $worse > $m.bound then "FAIL" else "ok  " end) \($w) \($m.name) \($f | num) \($m.unit), baseline \($b | num): "
           + (if $worse >= 0 then "\($worse | pct)% worse" else "\(-$worse | pct)% better" end)
           + " (bound \($m.bound | pct)%)"
         end)' "$spec")
  sed 's/^/bench ratchet: /' <<<"$verdict"
  if grep -q '^FAIL' <<<"$verdict"; then
    failed=1
  fi
done
if [ "$failed" -ne 0 ]; then
  echo "bench ratchet: FAILED — see the FAIL lines above; the fresh lines are in $fresh" >&2
  exit 1
fi

# Large-N scheduler floor: at 512 runnable contexts the tournament-tree run
# queue must hold at least a 5x per-handoff lead over the flat rescan-min
# baseline (~20x on the reference host; the 4-ary heap it replaced held
# ~7x). hostbench cannot see this: its machines run at most 128 contexts,
# and catalog machines at most 16, where tree and rescan are comparable.
readonly tree_floor=5.0
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
  "$tree_ns" "$flat_ns" "$(awk -v h="$tree_ns" -v f="$flat_ns" 'BEGIN { print f/h }')" "$tree_floor"
if awk -v h="$tree_ns" -v f="$flat_ns" -v m="$tree_floor" 'BEGIN { exit !(f < h * m) }'; then
  echo "bench ratchet: FAILED — tree scheduler lead at 512 contexts fell below ${tree_floor}x" >&2
  exit 1
fi
echo "bench ratchet: OK"
