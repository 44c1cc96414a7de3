#!/usr/bin/env bash
# Prints the line ledger ROADMAP.md keeps: non-test lines per crate
# under crates/*/src (and the facade's src/), each `#[cfg(test)]` item
# left out, with the dev-only testkit listed apart and vendor/ counted
# whole. It prints only; no budget is enforced. Run from
# anywhere in the repo:
#
#   bash .github/ledger.sh
set -euo pipefail

cd "$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"

# Lines of every .rs file under $1 outside the items `#[cfg(test)]`
# annotates. Such an item runs from the attribute to the line where its
# braces close again, or to its `;` if it opens none (`mod tests;`).
# Braces are counted as written: an unpaired one inside a string or char
# literal would throw the count off.
non_test_lines() {
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { skip = 0 }
                      !skip && /^[[:space:]]*#\[cfg\(test\)\]/ {
                          skip = 1; depth = 0; opened = 0
                          sub(/^[[:space:]]*#\[cfg\(test\)\]/, "")
                      }
                      skip {
                          opens = gsub(/\{/, "")
                          depth += opens - gsub(/\}/, "")
                          if (opens) opened = 1
                          if (opened ? depth <= 0 : /;[[:space:]]*$/) skip = 0
                          next
                      }
                      { n++ }
                      END { print n + 0 }'
}

echo "shipping crates (non-test lines):"
total=0
for dir in crates/*/; do
    name="$(basename "$dir")"
    [ "$name" = testkit ] && continue
    n="$(non_test_lines "$dir/src")"
    total=$((total + n))
    printf '  %-10s %6d\n' "$name" "$n"
done
n="$(non_test_lines src)"
total=$((total + n))
printf '  %-10s %6d\n' "facade" "$n"
printf '  %-10s %6d\n' "total" "$total"

echo "dev-only:"
printf '  %-10s %6d\n' "testkit" "$(non_test_lines crates/testkit/src)"

echo "vendor (all lines):"
for dir in vendor/*/; do
    printf '  %-10s %6d\n' "$(basename "$dir")" \
        "$(find "$dir" -name '*.rs' -print0 | xargs -0 cat | wc -l)"
done
