"""Largest relative change of every numeric field between two reports of
``fracwave verify all --out``, or of every entry between two snapshot CSVs
or two raw float64 files.

    python tests/report_diff.py OLD.json NEW.json [--max-rel X]
    python tests/report_diff.py OLD.csv NEW.csv [--max-rel X]
    python tests/report_diff.py OLD.f64 NEW.f64 [--max-rel X]

A field is the path of keys from a criterion's name down to a number, with
list positions left out, so that a list of numbers is one field, reported
by the largest change of any of its entries.  The relative change of an
entry is ``|new - old| / |old|`` (``inf`` where only ``old`` is zero).  One
line per field, in the order of the old report, then a line for the
largest change overall.  Fields present in only one report, and
non-numeric values that differ (``passed`` flags, names), are named on
lines of their own.

A CSV (``fracwave solve``'s snapshots, ``fracwave hidden``'s trace) is
compared cell by cell below its header, and a ``.f64`` file (the alpha
sweep of ``output_digests.py``) entry by entry.  The lines give the number
of entries and of those that changed, the largest absolute change over the
largest ``|old|``, and the largest relative change with its column and row
(or its entry); a header or shape that differs is named instead.

With ``--max-rel X`` the exit status is 1 when any numeric field or entry
changed by more than ``X``, or any leaf has no equal counterpart (a
non-numeric value that differs, a field in one report only, a header or
shape that differs), and 0 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import numpy as np


def leaves(node, field="", at=()):
    """``(field, position, value)`` for every leaf below ``node``.

    ``position`` is the tuple of list indices along the way, so that a leaf
    is identified by ``(field, position)``.  The top-level ``criteria`` list
    is replaced by its entries, keyed by each criterion's name.
    """
    if isinstance(node, dict):
        if field == "" and "criteria" in node:
            rest = {k: v for k, v in node.items() if k != "criteria"}
            node = {**{c["name"]: c for c in node["criteria"]}, **rest}
        for key, value in node.items():
            yield from leaves(value, f"{field}.{key}" if field else str(key), at)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, field, at + (i,))
    else:
        yield field, at, node


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    if old == 0.0:
        return math.inf
    return abs(new - old) / abs(old)


def diff(old: dict, new: dict) -> tuple[dict[str, float], list[str]]:
    """Largest relative change per numeric field, and a note for every
    leaf that has no numeric counterpart in the other report."""
    new_leaves = {(f, at): v for f, at, v in leaves(new)}
    changes: dict[str, float] = {}
    notes = []
    seen = set()
    for field, at, a in leaves(old):
        seen.add((field, at))
        where = field + "".join(f"[{i}]" for i in at)
        if (field, at) not in new_leaves:
            notes.append(f"only in old: {where}")
            continue
        b = new_leaves[(field, at)]
        if _numeric(a) and _numeric(b):
            changes[field] = max(changes.get(field, 0.0), relative_change(a, b))
        elif a != b:
            notes.append(f"changed: {where}: {a!r} -> {b!r}")
    for (field, at) in new_leaves.keys() - seen:
        notes.append("only in new: " + field + "".join(f"[{i}]" for i in at))
    return changes, notes


def report_lines(old: dict, new: dict) -> list[str]:
    changes, notes = diff(old, new)
    lines = [f"{change:.3g}  {field}" for field, change in changes.items()]
    lines += sorted(notes)
    if changes:
        field = max(changes, key=changes.get)
        lines.append(f"largest: {changes[field]:.3g}  {field}")
    return lines


def _entries(path: str):
    """``(header, values)``: a CSV's header and its other rows as a float
    array, or no header and the float64 entries of any other file."""
    if not path.endswith(".csv"):
        return None, np.fromfile(path, dtype=np.float64)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def array_lines(old, new) -> tuple[list[str], float]:
    """The lines comparing two ``_entries`` results, and their largest
    relative change (``inf`` where their headers or shapes differ)."""
    (head, a), (head_new, b) = old, new
    if head != head_new:
        return ["header differs"], math.inf
    if a.shape != b.shape:
        return [f"shape differs: {a.shape} -> {b.shape}"], math.inf
    lines = [f"entries: {a.size}, changed: {np.count_nonzero(a != b)}"]
    if a.size == 0:
        return lines, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(a == b, 0.0, np.abs(b - a) / np.abs(a))
    scale = np.max(np.abs(a))
    lines.append(f"largest absolute change / largest |old|: "
                 f"{np.max(np.abs(b - a)) / scale if scale else 0.0:.3g}")
    at = np.unravel_index(int(np.argmax(rel)), rel.shape)
    where = f"entry {at[0]}" if head is None else f"{head[at[1]]} at row {at[0] + 1}"
    lines.append(f"largest: {rel[at]:.3g}  {where}")
    return lines, float(rel[at])


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    max_rel = None
    if "--max-rel" in args:
        at = args.index("--max-rel")
        try:
            max_rel = float(args[at + 1])
        except (IndexError, ValueError):
            args = []
        else:
            del args[at : at + 2]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if not args[0].endswith(".json"):
        lines, largest = array_lines(_entries(args[0]), _entries(args[1]))
        print("\n".join(lines))
        over = max_rel is not None and not largest <= max_rel
        if over:
            print(f"over --max-rel {max_rel:g}")
        return int(over)
    with open(args[0]) as fh_old, open(args[1]) as fh_new:
        old, new = json.load(fh_old), json.load(fh_new)
    print("\n".join(report_lines(old, new)))
    if max_rel is None:
        return 0
    changes, notes = diff(old, new)
    over = [field for field, change in changes.items() if not change <= max_rel]
    for field in over:
        print(f"over --max-rel {max_rel:g}: {field}")
    return 1 if over or notes else 0


if __name__ == "__main__":
    sys.exit(main())
