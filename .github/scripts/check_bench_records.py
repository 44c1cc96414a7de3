#!/usr/bin/env python3
"""Validate a MAXLENGTH_BENCH_JSON trail against the rows a bench must record.

usage: check_bench_records.py FILE NAME[@SCALE]...

FILE holds one JSON object per line with `bench`, `scale` and a positive
`ns_per_iter`. Every record must match one expected row and every expected
row must be recorded: a bare NAME matches on `bench` alone, NAME@SCALE also
pins `scale` and may be recorded only once.
"""
import json
import sys

REQUIRED = {"bench", "scale", "ns_per_iter"}


def main(path, specs):
    expected = set()
    for spec in specs:
        name, _, scale = spec.partition("@")
        expected.add((name, float(scale)) if scale else (name, None))
    seen = set()
    with open(path) as trail:
        for line in trail:
            record = json.loads(line)
            missing = REQUIRED - record.keys()
            if missing:
                sys.exit(f"bench record missing {sorted(missing)}: {line!r}")
            value = record["ns_per_iter"]
            if not isinstance(value, (int, float)) or value <= 0:
                sys.exit(f"non-positive ns_per_iter: {line!r}")
            exact = (record["bench"], float(record["scale"]))
            if exact in seen:
                sys.exit(f"duplicate bench record: {exact}")
            seen.add(exact if exact in expected else (record["bench"], None))
    if seen != expected:
        sys.exit(
            f"bench record set mismatch in {path}:"
            f"\n  missing: {sorted(expected - seen, key=str)}"
            f"\n  unexpected: {sorted(seen - expected, key=str)}"
        )
    print(f"{path}: {len(seen)} well-formed bench records, exact set match")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2:])
