#!/usr/bin/env bash
# Paired A/B of the simulator benchmark: a base and a head build of
# `benchmark/`'s `bench` binary, alternated on one machine.
#
#   .github/scripts/bench-ab.sh BASE_BIN HEAD_BIN SEED
#
# For every workload in BENCHMARK.json it runs PAIRS pairs of
# `bench --workload W --seed SEED --seconds RUN_SECONDS`; odd pairs run
# the base first, even pairs the head. RUN_SECONDS is BENCHMARK.json's
# `run_seconds`, the run length the benchmark itself judges: a metric
# that grows with the pass count (`paper-sweep`'s `peak_rss_mib`) reads
# differently in a shorter run. Each pair gives one head/base ratio per
# metric. Both runs of a pair share the host's conditions, so the ratio
# cancels most of the host's noise.
#
# Every end-to-end metric BENCHMARK.json declares is gated (GATED is
# read from its `end_to_end` list). A gated metric fails on a workload
# when both hold:
#   - the median over pairs of the head/base ratio is worse than the
#     metric's BENCHMARK.json bound, and
#   - the head loses at least LOSSES_TO_FAIL of the PAIRS pairs.
# A pair whose base run did not report a metric (a base that predates
# it) gives no ratio for it; a head run that does not report it stops
# the script with an error.
# A workload also fails on any run that reports `correct: false` or
# gives no result, and when the head's failed share of cell runs is
# larger than the base's. A workload the base build does not know is
# skipped.
#
# Writes the pair table to TABLE in the working directory and exits 1
# when any workload fails.
set -euo pipefail

PAIRS=5
LOSSES_TO_FAIL=4
TABLE=bench-ab.json

if [[ $# -ne 3 ]]; then
  echo "usage: $0 BASE_BIN HEAD_BIN SEED" >&2
  exit 2
fi
base_bin=$1
head_bin=$2
seed=$3
spec="$(dirname "$0")/../../BENCHMARK.json"
RUN_SECONDS=$(jq -er .run_seconds "$spec")
GATED=$(jq -c '[.end_to_end[].name]' "$spec")

# One run of `bench` ($1) on workload $2, printed as one JSON object:
# the run's result line, {"skipped": true} when the build does not know
# the workload, or {"error": ...} when the run gave no result.
run() {
  local status=0 out result err
  err=$(mktemp)
  out=$("$1" --workload "$2" --seed "$seed" --seconds "$RUN_SECONDS" 2>"$err") || status=$?
  if [[ $status -eq 2 ]] && grep -q '^unknown workload' "$err"; then
    echo '{"skipped": true}'
  elif [[ $status -eq 0 ]] &&
    result=$(tail -n 1 <<<"$out" | jq -ce 'select(has("correct"))' 2>/dev/null); then
    echo "$result"
  else
    jq -cn --arg e "exit status $status: $(tail -n 3 "$err")" '{error: $e}'
  fi
  rm -f "$err"
}

rows=$(mktemp)
trap 'rm -f "$rows"' EXIT

for workload in $(jq -r '.workloads[].name' "$spec"); do
  for ((pair = 1; pair <= PAIRS; pair++)); do
    if ((pair % 2)); then
      first=base
      base=$(run "$base_bin" "$workload")
      if jq -e .skipped <<<"$base" >/dev/null; then
        echo "$workload: unknown to the base build, skipped" >&2
        jq -cn --arg w "$workload" '{workload: $w, skipped: true}' >>"$rows"
        continue 2
      fi
      head=$(run "$head_bin" "$workload")
    else
      first=head
      head=$(run "$head_bin" "$workload")
      base=$(run "$base_bin" "$workload")
    fi
    jq -cn --arg w "$workload" --argjson pair "$pair" --arg first "$first" \
      --argjson base "$base" --argjson head "$head" --argjson gated "$GATED" '
      def keep:
        if .error then . else
          {correct, attempted, failed}
          + ([$gated[] as $m | {key: $m, value: .metrics[$m].value}] | from_entries)
        end;
      {workload: $w, pair: $pair, first: $first, base: ($base | keep), head: ($head | keep)}' |
      tee -a "$rows" >&2
  done
done

jq -s --slurpfile spec "$spec" --argjson seed "$seed" --argjson pairs "$PAIRS" \
  --argjson seconds "$RUN_SECONDS" --argjson losses "$LOSSES_TO_FAIL" \
  --argjson gated "$GATED" '
  def median:
    if length == 0 then null
    else sort | (.[(length - 1) / 2 | floor] + .[length / 2 | floor]) / 2 end;
  # Whether a head/base ratio is worse than $limit for a metric.
  def worse($better; $limit): if $better == "higher" then . < $limit else . > $limit end;
  def share:
    (map(.attempted) | add) as $n | if $n > 0 then (map(.failed) | add) / $n else 0 end;
  def round3: . * 1000 | round / 1000;
  . as $rows
  | [$spec[0].workloads[].name as $w
     | [$rows[] | select(.workload == $w)] as $mine
     | if $mine[0].skipped then {workload: $w, verdict: "skipped"}
       else
         [$mine[] | select(.base.error == null and .head.error == null)] as $done
         | ([$gated[] as $m | $spec[0].end_to_end[] | select(.name == $m)
             | . as $d
             | [$done[] | select(.base[$d.name] | type == "number")
                | .head[$d.name] / .base[$d.name]] as $ratios
             | ($ratios | median) as $median
             | ([$ratios[] | select(worse($d.better; 1))] | length) as $lost
             | (if $d.better == "higher" then 1 - $d.bound else 1 + $d.bound end) as $limit
             | {key: $d.name,
                value: {better: $d.better, bound: $d.bound, ratios: $ratios,
                        median_ratio: $median, lost: $lost,
                        verdict: (if ($median | worse($d.better; $limit)) and $lost >= $losses
                                  then "fail" else "pass" end)}}]
            | from_entries) as $metrics
         | {base: ([$done[].base] | share), head: ([$done[].head] | share)} as $shares
         | ([$mine[] | .pair as $p | ("base", "head") as $s | .[$s]
             | if .error then "pair \($p) \($s): no result (\(.error))"
               elif .correct | not then "pair \($p) \($s): correct is false"
               else empty end]
            + [$metrics | to_entries[] | select(.value.verdict == "fail")
               | "\(.key): median head/base ratio \(.value.median_ratio | round3) is past its bound \(.value.bound), and the head lost \(.value.lost) of \(.value.ratios | length) pairs"]
            + (if $shares.head > $shares.base
               then ["failed share: head \($shares.head | round3) > base \($shares.base | round3)"] else [] end)
           ) as $reasons
         | {workload: $w,
            verdict: (if $reasons == [] then "pass" else "fail" end),
            reasons: $reasons,
            metrics: $metrics,
            failed_share: $shares,
            pairs: [$mine[] | del(.workload)]}
       end] as $workloads
  | {seed: $seed, pairs: $pairs, seconds: $seconds, losses_to_fail: $losses,
     verdict: (if any($workloads[]; .verdict == "fail") then "fail" else "pass" end),
     workloads: $workloads}' "$rows" >"$TABLE"

jq -r --arg table "$TABLE" '
  def fmt: if . == null then "n/a" else . * 1000 | round / 1000 | tostring end;
  (.workloads[]
   | .workload as $w
   | if .verdict == "skipped" then "\($w): skipped, unknown to the base build"
     else
       (.metrics | to_entries[]
        | "\($w) \(.key): head/base \(.value.ratios | map(fmt) | join(" ")); median \(.value.median_ratio | fmt), lost \(.value.lost) of \(.value.ratios | length): \(.value.verdict)"),
       (.reasons[] | "\($w): FAIL: \(.)")
     end),
  "bench-ab: \(.verdict), pair table in \($table)"' "$TABLE"

[[ $(jq -r .verdict "$TABLE") == pass ]]
