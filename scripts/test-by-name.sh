#!/usr/bin/env bash
# test-by-name.sh — run a package's tests by name, and fail when a name
# matches no test (`go test -run` with no match passes silently, so a
# renamed or deleted test would leave the run testing nothing).
#
# Usage: scripts/test-by-name.sh [go test flags] <package> <name>...
#   scripts/test-by-name.sh -race -cpu=1,2,4 ./internal/core TestParallelCommit
#
# Flags are the leading arguments that start with "-"; give a flag's
# value in the same argument (-cpu=1,2,4). Each name is a regular
# expression matched from the start of a top-level test name (end it
# with $ to match the whole name), and each must match at least one test
# in the package. The tests run in one `go test` call.
set -euo pipefail

flags=()
while [ $# -gt 0 ] && [ "${1#-}" != "$1" ]; do
  flags+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 [go test flags] <package> <name>..." >&2
  exit 2
fi
pkg=$1
shift

listed=$(go test -list . "$pkg")
for name in "$@"; do
  if ! grep -q "^$name" <<<"$listed"; then
    echo "no test in $pkg matches $name" >&2
    exit 1
  fi
done
go test ${flags[@]+"${flags[@]}"} -run "^($(IFS='|'; echo "$*"))" "$pkg"
