#!/usr/bin/env bash
# Exact-cell gate: the benchmark's seed-determined cells — candidates
# enumerated, pairs filtered and compared, wire bytes, symbols, entity
# events, match quality — repeat exactly run to run, so unlike the
# timings they can be diffed in CI. For each workload named it runs the
# 1-second benchmark (seed 1) twice, traced for the count cells and
# untraced for match_f1, and compares those cells with the lines
# recorded in testdata/bench_counts.golden. A change that moves a cell
# must re-record the golden on purpose and say why.
#
# Usage: scripts/bench_counts.sh [--record] WORKLOAD...
set -euo pipefail
cd "$(dirname "$0")/.."

golden=testdata/bench_counts.golden
traced_cells='ssr.candidates_per_insert|core.enumerated_per_op|core.compared_per_op|core.filtered_share|ssr.prefilter_reject_share|codec.wire_bytes_per_tuple|sym.symbols_per_resident|resolve.events_per_op|wal.log_bytes_per_op|wal.snapshot_bytes_per_resident'
untraced_cells='match_f1'

record=0
if [ "${1:-}" = --record ]; then
  record=1
  shift
fi
if [ "$#" -eq 0 ]; then
  echo "usage: scripts/bench_counts.sh [--record] WORKLOAD..." >&2
  exit 2
fi

got=$(mktemp)
want=$(mktemp)
trap 'rm -f "$got" "$want"' EXIT
# The golden's lines of the workloads named, as an ERE.
mine=$(printf '%s/|' "$@")
mine="^(${mine%|})"

# cells WORKLOAD CELLS [FLAG] runs the 1-second benchmark of the
# workload (with FLAG, e.g. -trace) and appends the named cells to $got.
cells() {
  local w=$1 names=$2 out
  shift 2
  if ! out=$(go run ./bench "$@" -workload "$w" -seed 1 -seconds 1); then
    echo "$out"
    echo "bench counts: run of $w ($*) failed" >&2
    exit 1
  fi
  echo "$out" | awk -v w="$w" -v cells="^($names)\$" '
    index($1, w "/") == 1 && substr($1, length(w) + 2) ~ cells { print $1, $2 }' >>"$got"
}

for w in "$@"; do
  cells "$w" "$traced_cells" -trace
  cells "$w" "$untraced_cells"
done

if [ "$record" -eq 1 ]; then
  # Keep the recorded lines of the workloads not run this time.
  { grep -Ev "$mine" "$golden" 2>/dev/null || true; cat "$got"; } | sort >"$want"
  cp "$want" "$golden"
  echo "bench counts: recorded $(wc -l <"$got") cells in $golden"
  exit 0
fi

grep -E "$mine" "$golden" | sort >"$want" || true
sort -o "$got" "$got"
if ! diff -u "$want" "$got"; then
  echo "bench counts: cells moved against $golden (- recorded, + this tree)" >&2
  exit 1
fi
echo "bench counts: $(wc -l <"$got") cells match $golden"
