#!/usr/bin/env bash
# Runs `cargo test "$@"` and fails if it ran no test at all: a name
# filter that matches nothing (say, after a module moved) otherwise
# passes green.
#
#   bash .github/filtered-test.sh -q -p rpki-rtr --lib clock::
set -euo pipefail
out=$(cargo test "$@" 2>&1) || { printf '%s\n' "$out"; exit 1; }
printf '%s\n' "$out"
ran=$(printf '%s\n' "$out" | awk '/^test result:/ { n += $4 } END { print n + 0 }')
if [ "$ran" -eq 0 ]; then
  echo "error: \`cargo test $*\` ran 0 tests" >&2
  exit 1
fi
