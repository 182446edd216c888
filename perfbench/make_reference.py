"""Capture the reference outputs of the default seed.

    python3 perfbench/make_reference.py coarse refine

Runs units 0 .. period-1 of each named workload at the default seed (the
inputs repeat with that period), checks their invariants, and writes the
output tables to ``perfbench/reference/<workload>.json.gz``.  Run it only at
a commit whose outputs are the accepted ones.
"""

from __future__ import annotations

import gzip
import json
import sys

import run  # sets the BLAS thread count before numpy loads


def main(names: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    import timefreq.cli as cli
    from checks import invariant_errors
    from workloads import DEFAULT_SEED, WORKLOADS

    for name in names:
        wl = WORKLOADS[name]
        unit_dir = run.OUT / "units" / name
        unit_dir.mkdir(parents=True, exist_ok=True)
        units = {}
        for index in range(wl.period):
            unit = wl.make(DEFAULT_SEED, index, unit_dir)
            _, results = run.execute(unit, cli)
            tables, errors = run.unit_tables(unit, results)
            for table_name, table in tables.items():
                errors += invariant_errors(table_name, table, unit.context)
            if errors:
                print(f"{name} unit {index}: {errors}", file=sys.stderr)
                return 1
            units[str(index)] = tables
        path = run.HERE / "reference" / f"{name}.json.gz"
        path.parent.mkdir(exist_ok=True)
        data = {"workload": name, "seed": DEFAULT_SEED, "period": wl.period, "units": units}
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(json.dumps(data, sort_keys=True, separators=(",", ":")).encode())
        print(f"{name}: {wl.period} units -> {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
