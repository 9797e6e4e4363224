#!/usr/bin/env bash
# Counter gate: run perfbench's two cold workloads once, traced, and
# compare their host-independent counters with bench/counters.expected.
#
#   bash bench/counters.sh        (from any directory)
#
# Each line of counters.expected is "workload metric value".  The gate
# fails when perfbench exits nonzero or reports a failed operation, when
# a pinned counter differs from its line (the diff names it), or when
# GC minor words per warp instruction go over the workload's bound
# below.  Wall times are reported by perfbench, never compared here.
# warm-serve is not gated: its traced replay is time-budgeted, so its
# counters depend on host speed.
#
# A change that moves a counter on purpose edits counters.expected and
# says why in CHANGES.md.
set -u
cd "$(dirname "$0")/.."
expected=bench/counters.expected
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

# Upper bound on sim.minor_words_per_winstr per workload.
bound() {
  case $1 in
    cold-explore) echo 0.50 ;;
    cold-tune) echo 1.00 ;;
  esac
}

for w in cold-explore cold-tune; do
  if ! bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 1 > "$tmp/$w.out"; then
    echo "counters: perfbench $w exited nonzero" >&2
    status=1
    continue
  fi
  summary=$(tail -n 1 "$tmp/$w.out")
  failed=$(jq '.failed' <<< "$summary")
  if [ "$failed" != 0 ]; then
    echo "counters: $w: $failed failed operation(s)" >&2
    status=1
  fi
  # "+ 0" prints every value in jq's shortest round-trip form, whatever
  # digits the summary line spelled it with.
  # shellcheck disable=SC2046  # one argument per pinned metric name
  jq -r --arg w "$w" '.metrics as $m | $ARGS.positional[]
      | "\($w) \(.) \(if $m[.] == null then "missing" else $m[.].value + 0 end)"' \
    --args $(awk -v w="$w" '$1 == w { print $2 }' "$expected") <<< "$summary" |
    tee -a "$tmp/actual"
  b=$(bound "$w")
  if ! jq -e --argjson b "$b" '.metrics["sim.minor_words_per_winstr"].value <= $b' \
    <<< "$summary" > /dev/null; then
    echo "counters: $w sim.minor_words_per_winstr" \
      "$(jq '.metrics["sim.minor_words_per_winstr"].value' <<< "$summary") is over its bound $b" >&2
    status=1
  fi
done

if ! diff "$expected" "$tmp/actual"; then
  echo "counters: pinned counters differ from $expected (< pinned, > this tree)" >&2
  status=1
fi
if [ "$status" = 0 ]; then echo "counters: ok"; fi
exit "$status"
