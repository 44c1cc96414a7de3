#!/usr/bin/env bash
# Runs the mutant ledger. Each patch under .github/mutants/ plants one
# small bug that a test once caught, under a header that names the bug,
# the change it was first checked on, the tests that must fail on it and
# whether tier-1 must catch it:
#
#   # Mutant: <what the bug does>
#   # Origin: <the change it was first checked on>
#   # Test: <cargo test arguments selecting one test>   (one line each)
#   # Tier-1: must catch | need not catch: <why>
#
# The working tree (tracked and untracked files, not ignored ones) is
# copied to a temporary directory. There each patch is applied in turn
# with `git apply`, every named test is built and run, and so is tier-1
# (`cargo test -q` at the root); then the patch is taken back out. A
# mutant is caught when every named test fails and, if its header says
# tier-1 must catch it, tier-1 fails too. The script prints caught or
# missed per mutant and the share of mutants tier-1 catches, and exits
# non-zero on a miss, or on a patch that no longer applies or builds.
# Run from anywhere in the repo, on every patch or on the ones named:
#
#   bash .github/mutants.sh [.github/mutants/NAME.patch ...]
#
# The builds go to CARGO_TARGET_DIR if it is set, else to the temporary
# directory. The copy's files are stamped with the time of the copy, so
# the first build of a run recompiles the workspace even in a target
# directory that an earlier run left: cargo judges path crates by mtime,
# and that directory may still hold the earlier run's last mutant.
set -euo pipefail

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
cd "$repo"

patches=()
for p in "${@:-.github/mutants/*.patch}"; do
    for q in $p; do patches+=("$(cd "$(dirname "$q")" && pwd)/$(basename "$q")"); done
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
log="$work/log"
mkdir "$tree"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"

while IFS= read -r -d '' f; do
    [ -e "$f" ] && printf '%s\0' "$f"
done < <(git ls-files -z --cached --others --exclude-standard) |
    tar --null -T - -cf - | tar -xmf - -C "$tree"

# `cargo test` in the copy; its output goes to the log.
run() { (cd "$tree" && cargo test -q "$@") >"$log" 2>&1; }

total=0 caught=0 tier1=0 failed=0
for patch in "${patches[@]}"; do
    name="$(basename "$patch" .patch)"
    total=$((total + 1))
    mapfile -t tests < <(sed -n 's/^# Test: //p' "$patch")
    must="$(sed -n 's/^# Tier-1: //p' "$patch")"
    if [ "${#tests[@]}" -eq 0 ] || [ -z "$must" ]; then
        echo "BROKEN  $name: no '# Test:' or no '# Tier-1:' line"
        failed=$((failed + 1))
        continue
    fi
    if ! git -C "$tree" apply "$patch" 2>"$log"; then
        echo "STALE   $name: the patch no longer applies"
        sed 's/^/        /' "$log"
        failed=$((failed + 1))
        continue
    fi

    verdict=caught why=""
    for t in "${tests[@]}"; do
        # shellcheck disable=SC2086 # the line holds several arguments
        if ! run --no-run $t; then
            verdict=BROKEN why="does not build: cargo test $t"
            break
        fi
        # shellcheck disable=SC2086
        if run $t; then
            verdict=MISSED why="passes: cargo test $t"
        fi
    done
    t1=-
    if [ "$verdict" != BROKEN ]; then
        if run; then t1=missed; else t1=caught tier1=$((tier1 + 1)); fi
        if [ "$t1" = missed ] && [ "${must%%:*}" = "must catch" ]; then
            verdict=MISSED why="${why:+$why; }tier-1 passes"
        fi
    fi
    git -C "$tree" apply -R "$patch"

    printf '%-7s %-40s tier-1 %s\n' "$verdict" "$name" "$t1"
    if [ "$verdict" = caught ]; then
        caught=$((caught + 1))
    else
        echo "        $why"
        failed=$((failed + 1))
    fi
done

echo "$total mutants: $caught caught by their named tests; tier-1 caught $tier1 of $total"
[ "$failed" -eq 0 ]
