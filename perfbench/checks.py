"""Output checks behind ``pass_ratio``.

Invariants that hold for any seed are checked on every unit: exit code 0,
finite CSV values (except the cells the CLI documents as NaN), Gabor
reconstruction error at most 1e-6 and frame deviation at most 1e-8, the
maximal function dominating its input (min(M f - |f|) >= -1e-12), forest levels that hold every input tile exactly once within
their size certificates, and the requested row layouts.

For the default seed each unit's outputs are also compared with the
reference captured from the same unit index.  Discrete columns must match
exactly, floats to a relative tolerance of ``REL_TOL``, and roundoff-level
columns are held to their bound instead of their value.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REL_TOL = 1e-9

# columns whose value is a count, index or label: compared as text
DISCRETE = {"set_index", "k", "level", "tree_count", "tile_count", "N", "trial_count",
            "n", "run", "trial", "J", "statistic", "stat", "line"}
# roundoff-level columns: held to their bound, not to the reference value
BOUNDS = {"recon_rel_error": 1e-6, "frame_deviation": 1e-8}
# roundoff-level rows of the stat/value tables, likewise held to their bound
STAT_LOWER_BOUNDS = {"min_excess": -1e-12}
# cells the CLI writes as NaN by design: (table, column, row predicate)
NAN_CELLS = {
    ("blowup", "growth_factor"): lambda row, i: i == 0,
    ("tails", "sharpness"): lambda row, i: row["statistic"] != "orbit_tail_spike",
}


def read_output(path: str) -> list[list[str]]:
    """A CSV as rows of text; a text sidecar as one-column rows."""
    p = Path(path)
    if p.suffix == ".csv":
        with p.open(newline="") as fh:
            return [row for row in csv.reader(fh)]
    return [["line"]] + [[line] for line in p.read_text().splitlines()]


def _num(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def invariant_errors(step: str, table: list[list[str]], ctx: dict) -> list[str]:
    """Problems with one output table that no seed may produce."""
    errs = []
    header, rows = table[0], table[1:]
    dicts = [dict(zip(header, r)) for r in rows]
    for i, row in enumerate(dicts):
        for col, text in row.items():
            x = _num(text)
            if x is None or not (math.isnan(x) or math.isinf(x)):
                continue
            allowed = NAN_CELLS.get((step, col))
            if not (allowed and math.isnan(x) and allowed(row, i)):
                errs.append(f"{step}: non-finite {col} in row {i}: {text}")
    for col, bound in BOUNDS.items():
        for row in dicts:
            if col in row and not float(row[col]) <= bound:
                errs.append(f"{step}: {col} = {row[col]} exceeds {bound:g}")
    if step == "frame_check" and len(rows) != ctx["expected_rows"]:
        errs.append(f"frame_check: {len(rows)} rows, expected {ctx['expected_rows']}")
    if step == "mm_scan":
        if [r["N"] for r in dicts] != ["2", "4", "8", "16", "32"]:
            errs.append("mm_scan: N column differs from the requested list")
    if step == "tree_select":
        total = sum(int(r["tile_count"]) for r in dicts)
        if total != ctx["tile_count"]:
            errs.append(f"tree_select: levels hold {total} tiles, input has {ctx['tile_count']}")
        for r in dicts:
            if float(r["max_size"]) > 2.0 ** -int(r["level"]) * (1 + 1e-12):
                errs.append(f"tree_select: level {r['level']} breaks its size certificate")
    if step == "tree_select.tiles.txt":
        listed = sorted(" ".join(r[0].split()[:4]) for r in rows)
        if listed != ctx["tiles"]:
            errs.append("tree_select: decomposition tiles differ from the input tiles")
    if step == "exceptional":
        for r in dicts:
            if float(r["measure_E"]) > float(r["measure_Estar"]) * (1 + 1e-12):
                errs.append("exceptional: E is larger than E*")
    for r in dicts:
        low = STAT_LOWER_BOUNDS.get(r.get("stat"))
        if low is not None and not float(r["value"]) >= low:
            errs.append(f"{step}: {r['stat']} = {r['value']} is below {low:g}")
    if step == "level_set" and "min_excess" not in [r["stat"] for r in dicts]:
        errs.append("level_set: M f >= |f| was not checked")
    if step == "rtt_sim" and len(rows) != ctx["rtt_rows"]:
        errs.append(f"rtt_sim: {len(rows)} rows, expected {ctx['rtt_rows']}")
    return errs


def reference_errors(step: str, table: list[list[str]], ref: list[list[str]]) -> list[str]:
    """Differences from the reference table beyond the stated tolerances."""
    if table[0] != ref[0]:
        return [f"{step}: header {table[0]} differs from reference {ref[0]}"]
    if len(table) != len(ref):
        return [f"{step}: {len(table) - 1} rows, reference has {len(ref) - 1}"]
    errs = []
    for i, (row, rrow) in enumerate(zip(table[1:], ref[1:])):
        if table[0][0] == "stat" and row[0] in STAT_LOWER_BOUNDS and row[0] == rrow[0]:
            continue
        for col, a, b in zip(table[0], row, rrow):
            if col in BOUNDS:
                continue
            x, y = _num(a), _num(b)
            if col in DISCRETE or x is None or y is None:
                ok = a == b
            elif math.isnan(x) or math.isnan(y):
                ok = math.isnan(x) and math.isnan(y)
            else:
                ok = abs(x - y) <= REL_TOL * max(abs(x), abs(y))
            if not ok:
                errs.append(f"{step}: row {i} {col} = {a}, reference {b}")
    return errs
