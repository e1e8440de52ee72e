#!/usr/bin/env bash
# Exact-cell gate: the traced benchmark's seed-determined counts —
# candidates enumerated, pairs filtered and compared, wire bytes,
# symbols — repeat exactly run to run, so unlike the timings they can
# be diffed in CI. Runs the 1-second traced benchmark (seed 1) for each
# workload named and compares its count cells with the lines recorded
# in testdata/bench_counts.golden. A change that moves a count must
# re-record the golden on purpose and say why.
#
# Usage: scripts/bench_counts.sh [--record] WORKLOAD...
set -euo pipefail
cd "$(dirname "$0")/.."

golden=testdata/bench_counts.golden
cells='ssr.candidates_per_insert|core.enumerated_per_op|core.compared_per_op|core.filtered_share|ssr.prefilter_reject_share|codec.wire_bytes_per_tuple|sym.symbols_per_resident'

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

for w in "$@"; do
  if ! out=$(go run ./bench -trace -workload "$w" -seed 1 -seconds 1); then
    echo "$out"
    echo "bench counts: traced run of $w failed" >&2
    exit 1
  fi
  echo "$out" | awk -v w="$w" -v cells="^($cells)\$" '
    index($1, w "/") == 1 && substr($1, length(w) + 2) ~ cells { print $1, $2 }' >>"$got"
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
