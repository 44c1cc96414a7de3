#!/usr/bin/env bash
# Fails when the docs point at things that do not exist: every
# backticked path under crates/, src/, tests/, examples/, vendor/ or
# .github/ in README.md and the verify skill must exist (a glob must
# match something, a `::test_name` suffix is ignored), and neither file
# may invoke `cargo run --example`. Run from anywhere in the repo:
#
#   bash .github/doc-paths.sh
set -euo pipefail

cd "$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"

docs=(README.md .claude/skills/verify/SKILL.md)
status=0

exists() {
    if [[ "$1" == *[*?[]* ]]; then
        compgen -G "$1" >/dev/null
    else
        [ -e "$1" ]
    fi
}

for doc in "${docs[@]}"; do
    while IFS=: read -r line span; do
        path="${span//\`/}"
        path="${path%%::*}"
        if ! exists "$path"; then
            echo "$doc:$line: \`$path\` does not exist" >&2
            status=1
        fi
    done < <(grep -noE '`(crates|src|tests|examples|vendor|\.github)/[^` ]*`' "$doc")

    while IFS= read -r hit; do
        echo "$doc:$hit: names an --example target" >&2
        status=1
    done < <(grep -nE -- '--example' "$doc")
done

if [ "$status" -eq 0 ]; then
    echo "doc paths: ${docs[*]} name only existing paths"
fi
exit "$status"
