#!/usr/bin/env bash
# Prints the line ledger ROADMAP.md keeps: non-test lines per crate
# under crates/*/src (and the facade's src/), each `#[cfg(test)]` item
# left out, with the dev-only testkit listed apart and vendor/ counted
# whole. Then it lists the process-wide state shipping code keeps, and
# the `pub fn`s whose name shipping code never names outside their own
# definitions: each is either a test hook whose doc names the test that
# needs it, or code nothing reads. It prints only; no budget is
# enforced. Run from anywhere in the repo:
#
#   bash .github/ledger.sh
set -euo pipefail

cd "$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"

# Every line of the .rs files under the given directories outside the
# items `#[cfg(test)]` annotates. Such an item runs from the attribute
# to the line where its braces close again, or to its `;` if it opens
# none (`mod tests;`). Braces are counted as written: an unpaired one
# inside a string or char literal would throw the count off.
non_test_text() {
    find "$@" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { skip = 0 }
                      !skip && /^[[:space:]]*#\[cfg\(test\)\]/ {
                          skip = 1; depth = 0; opened = 0
                          sub(/^[[:space:]]*#\[cfg\(test\)\]/, "")
                      }
                      skip {
                          line = $0
                          opens = gsub(/\{/, "", line)
                          depth += opens - gsub(/\}/, "", line)
                          if (opens) opened = 1
                          if (opened ? depth <= 0 : /;[[:space:]]*$/) skip = 0
                          next
                      }
                      { print FILENAME ":" FNR ":" $0 }'
}

echo "shipping crates (non-test lines):"
total=0
shipping=()
for dir in crates/*/; do
    name="$(basename "$dir")"
    [ "$name" = testkit ] && continue
    shipping+=("${dir%/}/src")
    n="$(non_test_text "${dir%/}/src" | wc -l)"
    total=$((total + n))
    printf '  %-10s %6d\n' "$name" "$n"
done
n="$(non_test_text src | wc -l)"
total=$((total + n))
printf '  %-10s %6d\n' "facade" "$n"
printf '  %-10s %6d\n' "total" "$total"

echo "dev-only:"
printf '  %-10s %6d\n' "testkit" "$(non_test_text crates/testkit/src | wc -l)"

echo "vendor (all lines):"
for dir in vendor/*/; do
    printf '  %-10s %6d\n' "$(basename "$dir")" \
        "$(find "$dir" -name '*.rs' -print0 | xargs -0 cat | wc -l)"
done

# State a process shares across calls: each `thread_local!` and each
# `static` holding a `Mutex`, an `Atomic*` or a `OnceLock` in the
# shipping crates and the facade, outside `#[cfg(test)]` items.
echo "process-wide state in shipping code:"
non_test_text "${shipping[@]}" src |
    grep -E '^[^:]*:[0-9]+:[[:space:]]*(pub(\([a-z]+\))? )?(thread_local!|static [A-Za-z_0-9]+: *([a-z_]+::)*(Mutex|Atomic[A-Za-z0-9]*|OnceLock)\b)' |
    sed -E 's/^([^:]*:[0-9]+):[[:space:]]*/  \1  /' ||
    echo "  none"

# A rough name-grep: a `pub fn` counts as read when its name appears,
# outside comments, more often in shipping code (the crates, the facade
# and benchmark/src) than it is defined there. Common names shared by two
# types hide each other, and so does a name in a string, so the list can
# miss a function.
# A function whose doc comment says "test hook" is listed apart: its doc
# names the tests that need it. A `pub use` re-export, on one line or a
# braced list over several, is not a read: it names a function without
# calling it.
echo "pub fns shipping code never names:"
non_test_text "${shipping[@]}" src benchmark/src |
    awk '{
             split($0, at, ":")
             line = $0; sub(/^[^:]*:[0-9]+:/, "", line)
             if (line ~ /^[[:space:]]*\/\/\//) { doc = doc " " line; next }
             if (match(line, /^[[:space:]]*pub (const )?fn [A-Za-z_0-9]+/)) {
                 name = substr(line, RSTART, RLENGTH); sub(/.* /, "", name)
                 where[name] = where[name] " " at[1] ":" at[2]
                 defs[name]++
                 if (tolower(doc) ~ /test hook/) hook[name] = 1
             }
             if (line !~ /^[[:space:]]*#\[/) doc = ""
             if (line ~ /^[[:space:]]*pub use /) reexport = 1
             if (reexport) { if (line ~ /;/) reexport = 0; next }
             sub(/\/\/.*/, "", line)
             while (match(line, /[A-Za-z_][A-Za-z_0-9]*/)) {
                 uses[substr(line, RSTART, RLENGTH)]++
                 line = substr(line, RSTART + RLENGTH)
             }
         }
         END {
             for (name in defs) if (uses[name] <= defs[name])
                 printf "%d  %-22s%s\n", !hook[name], name, where[name]
         }' |
    sort | awk '{ kind = substr($0, 1, 1); sub(/^[01]/, "") }
                kind != last {
                    print kind == "0" ? "  test hooks (their docs name the tests that need them):" \
                                      : "  nothing reads them:"
                    last = kind
                }
                { print "  " $0 }
                END { if (last != "1") print "  nothing reads them: none" }'
