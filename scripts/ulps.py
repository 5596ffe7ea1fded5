#!/usr/bin/env python3
"""Print every output value that differs between two scripts/digests.py runs.

BASE and HEAD are the OUT directories of two runs of scripts/digests.py
at one size, for example of two commits. Every JSON file (the reports)
is compared field by field and every curve.csv cell by cell. Each
number that differs is printed with its distance in ulps (the count of
float64 values between the two) and in absolute terms, after a table
that groups the moved numbers by file and field (a curve.csv column,
or a report field with its list indices left out); each
``within_trim_bounds`` cell that differs is listed as a flip. A file
present on one side only, a field of one report only or a differing
row count is listed too.

Usage: python scripts/ulps.py BASE HEAD
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import pathlib
import struct
import sys

TABLE = "curve.csv"
FLAG = "within_trim_bounds"


def _ordinal(x: float) -> int:
    """The position of ``x`` among float64 values, in order; -0.0 and 0.0 share one."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(1 << 63) - i


def _number(value) -> float | None:
    """``value`` as a float when it is a number or the text of one, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _leaves(obj, path: str = ""):
    """(dotted path, value) of every scalar in a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _cells(path: pathlib.Path):
    """(row and column, value) of every cell of a CSV table; rows count from 1 after the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    for r, row in enumerate(body, start=1):
        for column, value in zip(header, row):
            yield f"row {r} {column}", value
    yield "rows", len(body)


def _field(key: str) -> str:
    """The field a value belongs to: a curve.csv column without its row,
    or a report field without its list indices."""
    if key.startswith("row "):
        return key.split(" ", 2)[2]
    head, *rest = key.split("[")
    return "[".join([head, *(part[part.index("]") :] for part in rest)])


def _values(path: pathlib.Path) -> dict:
    if path.suffix == ".json":
        return dict(_leaves(json.loads(path.read_text(encoding="utf-8"))))
    return dict(_cells(path))


def _compared(base: pathlib.Path, head: pathlib.Path) -> list[pathlib.Path]:
    """The files of both runs to compare, relative to their directories."""
    def wanted(root: pathlib.Path) -> set[pathlib.Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.suffix == ".json" or p.name == TABLE}

    return sorted(wanted(base) | wanted(head))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=pathlib.Path, help="OUT directory of the first digests.py run")
    ap.add_argument("head", type=pathlib.Path, help="OUT directory of the second digests.py run")
    args = ap.parse_args(argv)

    moved, flips, other = [], [], []
    for rel in _compared(args.base, args.head):
        if not (args.base / rel).is_file() or not (args.head / rel).is_file():
            other.append((rel, "", "file present in " + ("HEAD" if (args.head / rel).is_file() else "BASE") + " only"))
            continue
        before, after = _values(args.base / rel), _values(args.head / rel)
        for key in [*before, *(key for key in after if key not in before)]:
            if key not in before or key not in after:
                other.append((rel, key, "present in " + ("HEAD" if key in after else "BASE") + " only"))
                continue
            a, b = before[key], after[key]
            if a == b:
                continue
            if key.endswith(" " + FLAG):
                flips.append((rel, key, a, b))
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                other.append((rel, key, f"{a} -> {b}"))
            elif x != y:
                moved.append((rel, key, x, y))

    print(f"{len(moved)} values moved, {len(flips)} {FLAG} flips, {len(other)} other differences")
    if moved:
        groups: dict = {}
        for rel, key, x, y in moved:
            group = rel, _field(key)
            count, ulps, diff = groups.get(group, (0, 0, 0.0))
            groups[group] = count + 1, max(ulps, abs(_ordinal(x) - _ordinal(y))), max(diff, abs(x - y))
        print("\n| file | field | values moved | max ulps | max abs |")
        print("|---|---|---|---|---|")
        for (rel, field), (count, ulps, diff) in groups.items():
            print(f"| {rel.as_posix()} | {field} | {count} | {ulps} | {diff:.3g} |")
        print("\n| file | field | base | head | ulps | abs |")
        print("|---|---|---|---|---|---|")
        for rel, key, x, y in moved:
            print(f"| {rel.as_posix()} | {key} | {x!r} | {y!r} | {abs(_ordinal(x) - _ordinal(y))} | {abs(x - y):.3g} |")
    if flips:
        print(f"\n| file | {FLAG} flip | base | head |")
        print("|---|---|---|---|")
        for rel, key, a, b in flips:
            print(f"| {rel.as_posix()} | {key} | {a} | {b} |")
    if other:
        print("\n| file | field | difference |")
        print("|---|---|---|")
        for rel, key, what in other:
            print(f"| {rel.as_posix()} | {key} | {what} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
