#!/usr/bin/env bash
# Non-test source lines per package directory: `wc -l` over a
# directory's *.go minus *_test.go, no recursion, so simplicity PRs
# state their delta the same way.
#
# Usage: scripts/loc.sh [DIR...]
#
# With directories it prints each one's count and their total. With
# none it prints every package directory that has Go source, the
# repository total, and the two sets ROADMAP.md quotes: item 2
# (internal/core internal/ssr internal/resolve) and item 4
# (internal/ssr).
set -euo pipefail
cd "$(dirname "$0")/.."

# loc DIR prints the non-test *.go line count of one directory.
loc() {
  find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

# sum DIR... prints the summed count of the directories.
sum() {
  local n=0 dir
  for dir in "$@"; do
    n=$((n + $(loc "$dir")))
  done
  echo "$n"
}

if [ "$#" -gt 0 ]; then
  for dir in "$@"; do
    printf '%6d  %s\n' "$(loc "$dir")" "${dir%/}"
  done
  printf '%6d  total\n' "$(sum "$@")"
  exit
fi

repo=0
while read -r dir; do
  n=$(loc "$dir")
  if [ "$n" -gt 0 ]; then
    printf '%6d  %s\n' "$n" "${dir#./}"
    repo=$((repo + n))
  fi
done < <(find . -name '*.go' ! -path './.bench_build/*' -exec dirname {} + | sort -u)
printf '%6d  repository\n' "$repo"
item2=(internal/core internal/ssr internal/resolve)
item4=(internal/ssr)
printf '%6d  ROADMAP item 2 (%s)\n' "$(sum "${item2[@]}")" "${item2[*]}"
printf '%6d  ROADMAP item 4 (%s)\n' "$(sum "${item4[@]}")" "${item4[*]}"
