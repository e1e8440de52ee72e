#!/usr/bin/env bash
# Non-test source lines per package directory: `wc -l` over a
# directory's *.go minus *_test.go, no recursion. Prints every package
# directory that has Go source, then the total for the set ROADMAP
# item 3 tracks (internal/core internal/wal internal/shard internal/avm
# cmd/*), so simplicity PRs state their delta the same way.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# loc DIR prints the non-test *.go line count of one directory.
loc() {
  find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

roadmap3=(internal/core internal/wal internal/shard internal/avm cmd/*)

while read -r dir; do
  n=$(loc "$dir")
  if [ "$n" -gt 0 ]; then
    printf '%6d  %s\n' "$n" "${dir#./}"
  fi
done < <(find . -name '*.go' ! -path './.bench_build/*' -exec dirname {} + | sort -u)

total=0
for dir in "${roadmap3[@]}"; do
  total=$((total + $(loc "$dir")))
done
printf '%6d  ROADMAP-3 set (%s)\n' "$total" "${roadmap3[*]}"
