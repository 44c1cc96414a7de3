#!/usr/bin/env bash
# Runs alternating parent/change pairs of one benchmark workload and
# prints, per end-to-end metric of BENCHMARK.json, both medians, both
# IQRs, the change's wins and the verdict:
#
#   bash .github/pairs.sh --parent REV [--change REV] [--workload W] [--seed S]
#                         [--pairs N] [--work DIR] [--trail] [--dry-run]
#
# Defaults: the change is HEAD plus the tracked changes of the working
# tree (stage new files first), `repro_paper`, seed 2017, 10 pairs. Each
# run lasts as long as the benchmark sets (BENCHMARK.json's
# `run_seconds`). `--parent` equal to the change is the null run.
#
# Each side is exported with `git archive` into its own directory under
# the work directory (`--work`, kept for the next call; else a temporary
# one, removed at exit) and built into its own CARGO_TARGET_DIR there.
# An export registers nothing in the repository, so an interrupted run
# leaves no worktree behind, and the checkout's own files, its
# `benchmark/Cargo.lock` included, are never written; each export's lock
# file is put back after its build. Both sides are built before anything
# is timed. Pair k runs the parent first when k is odd, the change first
# when it is even, each through its own `benchmark/run.sh`. The script
# refuses to start, and stops, while another `rpki-benchmark` of the same
# user is running.
#
# Each run's minor page faults are the `cminflt` of the subshell that
# wraps it, read from /proc/self/stat after the run, less the no-op
# `cargo build` that run.sh does first (measured in the same subshell
# just before). Verdicts, for each metric, with its bound b from
# BENCHMARK.json:
#   claim met     at least 10 pairs ran, the change wins >= 90 % of them
#                 (a pair with a failed run is not a win), it failed no
#                 more runs than the parent, and its median is better by
#                 more than the parent's IQR (the rule a claimed gain must
#                 pass; on another metric it only reads better);
#   unresolved    either side's IQR exceeds b times the parent's median;
#   beyond bound  the change's median is worse by more than b;
#   within bound  otherwise.
# `--trail` appends the result as one row to BENCH_<workload>.json at
# the repository's root. `--dry-run` prints the plan and builds nothing.
set -euo pipefail

usage() {
    sed -n '6,7p' "${BASH_SOURCE[0]}" | sed 's/^#   //' >&2
    exit 2
}

parent="" change="" workload=repro_paper seed=2017 pairs=10
work="" trail=0 dry=0
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent="${2:?}"; shift 2 ;;
        --change) change="${2:?}"; shift 2 ;;
        --workload) workload="${2:?}"; shift 2 ;;
        --seed) seed="${2:?}"; shift 2 ;;
        --pairs) pairs="${2:?}"; shift 2 ;;
        --work) work="${2:?}"; shift 2 ;;
        --trail) trail=1; shift ;;
        --dry-run) dry=1; shift ;;
        *) usage ;;
    esac
done
[ -n "$parent" ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ && "$seed" =~ ^[0-9]+$ ]] || usage

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
cd "$repo"
parent_rev="$(git rev-parse --verify "$parent^{commit}")"
parent_label="$(git rev-parse --short "$parent_rev")"
if [ -n "$change" ]; then
    change_rev="$(git rev-parse --verify "$change^{commit}")"
    change_label="$(git rev-parse --short "$change_rev")"
else
    # `git stash create` snapshots the tracked changes without touching
    # the checkout, and prints nothing when there are none.
    change_rev="$(git stash create)"
    if [ -n "$change_rev" ]; then
        change_label="$(git rev-parse --short HEAD)-dirty"
    else
        change_rev="$(git rev-parse HEAD)"
        change_label="$(git rev-parse --short HEAD)"
    fi
fi

seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    BENCHMARK.json)"

if [ "$dry" = 1 ]; then
    echo "workload $workload, seed $seed, $pairs pairs of $seconds s"
    echo "parent $parent_label ($parent_rev)"
    echo "change $change_label ($change_rev)"
    echo "each side: git archive REV | tar -x -m -C WORK/SIDE; cargo build --release --offline"
    echo "           --manifest-path WORK/SIDE/benchmark/Cargo.toml into WORK/SIDE-target"
    for ((k = 1; k <= pairs; k++)); do
        if ((k % 2)); then order="parent change"; else order="change parent"; fi
        echo "pair $k: $order"
    done
    exit 0
fi

busy() { pgrep -u "$(id -u)" -x rpki-benchmark >/dev/null; }
if busy; then
    echo "error: another rpki-benchmark is running; pairs beside it are not comparable" >&2
    exit 1
fi

if [ -z "$work" ]; then
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work"
work="$(cd "$work" && pwd)"
results="$work/results-$$"
mkdir "$results"

# Exports REV into WORK/SIDE unless it holds REV already, and builds it.
# `git archive` stamps files with the commit's time, older than the build
# of whatever the directory held before; `tar -m` stamps them now instead,
# so cargo sees them as changed.
prepare() {
    local side="$1" rev="$2"
    if [ "$(cat "$work/$side.rev" 2>/dev/null)" != "$rev" ]; then
        rm -rf "${work:?}/$side"
        mkdir "$work/$side"
        git archive "$rev" | tar -x -m -C "$work/$side"
        echo "$rev" >"$work/$side.rev"
    fi
    echo "building $side ($rev)" >&2
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml"
    git archive "$rev" benchmark/Cargo.lock | tar -x -m -C "$work/$side"
}
prepare parent "$parent_rev"
prepare change "$change_rev"

# The `cminflt` field of a /proc/PID/stat line (the 9th after the
# command name, which may hold spaces).
cminflt() {
    local rest="${1##*) }"
    local -a f
    read -r -a f <<<"$rest"
    echo "${f[8]}"
}

# One run of SIDE as pair K; its output goes to results/K-SIDE.
run_one() {
    local side="$1" k="$2"
    if busy; then
        echo "error: another rpki-benchmark started; stopping" >&2
        exit 1
    fi
    (
        cd "$work/$side"
        export CARGO_TARGET_DIR="$work/$side-target"
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
        read -r before </proc/self/stat
        status=0
        bash benchmark/run.sh --workload "$workload" --seed "$seed" \
            --trace 0 >"$results/$k-$side" || status=$?
        read -r after </proc/self/stat
        check="$(cminflt "$before")"
        echo $(($(cminflt "$after") - 2 * check)) >"$results/$k-$side.faults"
        exit "$status"
    ) || echo "warning: pair $k $side exited non-zero" >&2
    git archive "$(cat "$work/$side.rev")" benchmark/Cargo.lock | tar -x -m -C "$work/$side"
    echo "pair $k $side: $(grep -o 'round_p50_ms [0-9.]*' "$results/$k-$side" || echo failed)," \
        "$(cat "$results/$k-$side.faults") minor faults" >&2
}

for ((k = 1; k <= pairs; k++)); do
    if ((k % 2)); then
        run_one parent "$k"
        run_one change "$k"
    else
        run_one change "$k"
        run_one parent "$k"
    fi
done

python3 - "$results" "$repo/BENCHMARK.json" "$workload" "$seed" "$pairs" "$seconds" \
    "$parent_label" "$change_label" "$trail" "$repo/BENCH_$workload.json" <<'EOF'
import json, os, re, statistics, sys

results, contract, workload, seed, pairs, seconds, parent, change, trail, trail_path = sys.argv[1:]
pairs, seed = int(pairs), int(seed)
metrics = json.load(open(contract))["end_to_end"]

def load(k, side):
    path = os.path.join(results, f"{k}-{side}")
    lines = open(path).read().splitlines()
    faults = int(open(path + ".faults").read())
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, faults, ""
    context = next((l for l in lines if l.startswith("row ")), "")
    values = {name: m["value"] for name, m in last["metrics"].items()} if last["correct"] else None
    return values, faults, context

runs = {"parent": [], "change": []}
faults = {"parent": [], "change": []}
context = ""
for k in range(1, pairs + 1):
    for side in runs:
        values, f, ctx = load(k, side)
        runs[side].append(values)
        faults[side].append(f)
        context = context or ctx
failed = {side: sum(v is None for v in vs) for side, vs in runs.items()}
ctx = dict(re.findall(r"(threads|cpus)=(\d+)", context))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]

row = {
    "workload": workload, "commit": change, "parent": parent, "seed": seed,
    "threads": int(ctx.get("threads", 0)), "cpus": int(ctx.get("cpus", 0)),
    "pairs": pairs, "seconds": float(seconds), "null": parent == change,
    "failed_runs": failed, "minor_faults": faults, "metrics": {},
}
print(f"{workload} seed {seed}: parent {parent}, change {change}, {pairs} pairs")
print(f"{'metric':<14} {'parent med':>11} {'IQR':>9} {'change med':>11} {'IQR':>9} {'delta':>8} {'wins':>6}  verdict")
both = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p and c]
for m in metrics:
    name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
    ps = [p[name] for p, _ in both]
    cs = [c[name] for _, c in both]
    if not ps:
        print(f"{name:<14} no pair completed")
        continue
    mp, mc = statistics.median(ps), statistics.median(cs)
    (p1, p3), (c1, c3) = quartiles(ps), quartiles(cs)
    iqr_p, iqr_c = p3 - p1, c3 - c1
    # Wins are counted out of every pair run: one that failed is a loss.
    wins = sum((c < p) if lower else (c > p) for p, c in zip(ps, cs))
    gain = (mp - mc) if lower else (mc - mp)
    worse = -gain / mp if mp else 0.0
    if (pairs >= 10 and wins >= 0.9 * pairs and failed["change"] <= failed["parent"]
            and gain > iqr_p):
        verdict = "claim met"
    elif max(iqr_p, iqr_c) > bound * mp:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "beyond bound"
    else:
        verdict = "within bound"
    delta = (mc - mp) / mp * 100 if mp else 0.0
    print(f"{name:<14} {mp:>11.4g} {iqr_p:>9.3g} {mc:>11.4g} {iqr_c:>9.3g} {delta:>+7.1f}% {wins:>3}/{pairs:<2}  {verdict}")
    row["metrics"][name] = {
        "parent": ps, "change": cs, "parent_median": mp, "parent_iqr": iqr_p,
        "change_median": mc, "change_iqr": iqr_c, "wins": wins, "verdict": verdict,
    }
for side in ("parent", "change"):
    fs = faults[side]
    print(f"minor faults, {side}: median {statistics.median(fs):.0f}; runs {fs}")
if any(failed.values()):
    print(f"failed runs: {failed}")
if trail == "1":
    rows = json.load(open(trail_path)) if os.path.exists(trail_path) else []
    rows.append(row)
    with open(trail_path, "w") as out:
        json.dump(rows, out, indent=1)
        out.write("\n")
    print(f"appended to {trail_path}")
EOF
