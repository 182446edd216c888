"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload coarse --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; the library is imported from ``src``.  The
run measures set-up (several fresh interpreters importing timefreq and its
CLI), then runs units of the workload in this process as a closed loop for
``--seconds`` after one untimed warm-up unit, checks every unit's outputs,
and prints every metric by name and unit.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
each unit runs twice, once with the per-layer wrappers installed and once
without, alternating which goes first; the metrics are the per-layer ones,
the share of traced unit time the summed self times cover, and the tracing
overhead.  The full record, with the machine description and every unit,
goes to ``.perfbench_out/results/``; traced spans go next to it.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread: the runs must not depend on how busy the other cores are.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import machine  # noqa: E402
import tracing  # noqa: E402
from checks import invariant_errors, read_output, reference_errors  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, library_table, prepare, run_step  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter until timefreq's CLI is ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe_setup.py"), str(SRC)],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed to import timefreq")
        times.append(elapsed)
    return times


def load_reference(workload: str) -> dict | None:
    path = HERE / "reference" / f"{workload}.json.gz"
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def execute(unit, cli) -> tuple[float, list]:
    """Run a unit's steps in order; returns (wall seconds, step results)."""
    prepare(unit)
    results = []
    t0 = time.perf_counter()
    for step in unit.steps:
        try:
            rc, value = run_step(step, cli)
        except SystemExit as exc:  # argparse rejecting the argv
            rc, value = exc.code, None
        except Exception:  # a failing unit is counted, the loop goes on
            rc, value = traceback.format_exc(limit=3).strip().splitlines()[-1], None
        results.append((step, rc, value))
        if rc != 0:
            break
    return time.perf_counter() - t0, results


def unit_tables(unit, results) -> tuple[dict, list[str]]:
    """Output tables of a finished unit and the steps that did not exit 0."""
    tables, errors = {}, []
    for step, rc, value in results:
        if rc != 0:
            errors.append(f"{step.name}: exit {rc}")
            continue
        if step.call is not None:
            tables[step.name] = library_table(step.name, value, unit.context)
            continue
        for path in step.outputs:
            name = Path(path).name.removesuffix(".csv")
            try:
                tables[name] = read_output(path)
            except OSError as exc:
                errors.append(f"{step.name}: missing output {name}: {exc}")
    if len(results) < len(unit.steps):
        errors.append(f"steps after {results[-1][0].name} did not run")
    return tables, errors


def check_unit(unit, tables, errors, reference) -> list[str]:
    errs = list(errors)
    for name, table in tables.items():
        errs += invariant_errors(name, table, unit.context)
    if reference is not None:
        expected = reference["units"][str(unit.index % reference["period"])]
        if sorted(expected) != sorted(tables) and not errors:
            errs.append(f"outputs {sorted(tables)} differ from reference {sorted(expected)}")
        for name, table in tables.items():
            if name in expected:
                errs += reference_errors(name, table, expected[name])
    return errs


def tail(walls: list[float]) -> dict:
    """The highest percentile of unit time with at least ten units beyond it.

    That is the (n-10)-th smallest of n unit times, at percentile
    100 (n-10)/n.  With fewer than twenty units that would lie below the
    median, so the upper median is reported instead, with fewer than ten
    units beyond it.
    """
    ordered = sorted(walls)
    n = len(ordered)
    k = max(n - 10, (n + 1) // 2)
    return {"value": ordered[k - 1], "percentile": 100.0 * k / n, "units": n, "beyond": n - k}


def main(argv=None) -> int:
    if not (SRC / "timefreq" / "__init__.py").is_file():
        print(f"error: no timefreq sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    setup = measure_setup()
    t_import = time.perf_counter()
    import timefreq.cli as cli
    import_s = time.perf_counter() - t_import

    unit_dir = OUT / "units" / wl.name
    unit_dir.mkdir(parents=True, exist_ok=True)
    reference = load_reference(wl.name) if args.seed == DEFAULT_SEED else None
    if args.seed == DEFAULT_SEED and reference is None:
        print(f"error: no reference outputs for {wl.name}", file=sys.stderr)
        return 2

    # One untimed warm-up unit with inputs of its own (index -1) fills lazy
    # imports and process-level caches, such as the ergodic module's window
    # cache, so every timed unit sees the steady state and not first-use cost.
    warmup_s, _ = execute(wl.make(args.seed, -1, unit_dir), cli)

    tracer = tracing.Tracer() if args.trace else None
    units, traced_walls, plain_walls = [], [], []
    loop_start = time.perf_counter()
    cost = []  # harness seconds per loop iteration, to stop within --seconds
    index = 0
    while index == 0 or time.perf_counter() - loop_start + statistics.median(cost) <= args.seconds:
        t_iter = time.perf_counter()
        unit = wl.make(args.seed, index % wl.period, unit_dir)
        unit.index = index
        if args.trace:
            passes = (False, True) if index % 2 == 0 else (True, False)
        else:
            passes = (False,)
        record = {"index": index, "seed": unit.seed, "errors": []}
        for traced in passes:
            patches = []
            if traced:
                tracer.unit = index
                patches = tracing.install(tracer)
            try:
                wall, results = execute(unit, cli)
            finally:
                tracing.uninstall(patches)
            tables, errors = unit_tables(unit, results)
            record["errors"] += check_unit(unit, tables, errors, reference)
            if traced:
                record["traced_wall"] = wall
                traced_walls.append(wall)
                tracer.add("cli.csv", "bytes", sum(
                    Path(p).stat().st_size for s in unit.steps for p in s.outputs
                    if p.endswith(".csv") and Path(p).exists()))
            else:
                record["wall"] = wall
                plain_walls.append(wall)
        units.append(record)
        cost.append(time.perf_counter() - t_iter)
        index += 1

    passed = [u for u in units if not u["errors"]]
    failed = len(units) - len(passed)
    walls = [u["wall"] for u in passed] or plain_walls
    tail_info = tail(walls)
    e2e = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "units_per_s": {"value": len(passed) / sum(plain_walls), "unit": "1/s"},
        "unit_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "unit_tail_s": {"value": tail_info["value"], "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "pass_ratio": {"value": len(passed) / len(units), "unit": "ratio"},
    }
    mach = machine.record(ROOT)
    l2 = mach["l2_bytes"]
    result = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": mach, "loop": "closed, one caller",
        "setup_probes_s": setup, "import_in_process_s": import_s, "warmup_unit_s": warmup_s,
        "p50_samples": len(walls),
        "tail": tail_info,
        "reference_checked": reference is not None,
        "working_set": [{"what": what, "bytes": b, "fits_l2": None if l2 is None else b <= l2}
                        for what, b in wl.working_set],
        "units": units,
    }
    if args.trace:
        layers = tracing.layer_values(tracer, len(traced_walls))
        coverage = tracing.summed_self_time(tracer) / sum(traced_walls)
        traced_rate = len(traced_walls) / sum(traced_walls)
        plain_rate = len(plain_walls) / sum(plain_walls)
        layers["trace.self_coverage"] = {"value": coverage, "unit": "ratio"}
        layers["trace.overhead"] = {"value": plain_rate / traced_rate - 1.0, "unit": "ratio"}
        metrics = layers
        result["e2e_from_untraced_passes"] = e2e
        result["units_per_s_traced"] = traced_rate
        result["units_per_s_untraced"] = plain_rate
        result["absent"] = tracer.absent
        result["applies"] = sorted(m for m, v in layers.items() if v["value"] and
                                   not m.startswith("trace."))
        spans = OUT / "results" / f"{wl.name}-seed{args.seed}-spans.npz"
        spans.parent.mkdir(exist_ok=True)
        tracer.save(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["span_count"] = len(tracer.span_start)
    else:
        metrics = e2e
    result["metrics"] = metrics
    path = OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(result, indent=1))

    report(result, metrics, failed)
    print(json.dumps({"correct": failed == 0, "attempted": len(units), "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0


def report(result: dict, metrics: dict, failed: int) -> None:
    m = result["machine"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{len(result['units'])} units, {failed} failed; "
          f"{m['nproc']} cpus ({m['cpu_model']}), python {m['python']}, numpy {m['numpy']}, "
          f"{m['blas']['name']} {m['blas']['version']} x{m['blas']['threads']} threads, "
          f"source {m['source_digest']}")
    t = result["tail"]
    print(f"  unit_p50_s over {result['p50_samples']} units; "
          f"unit_tail_s is p{t['percentile']:.4g} of {t['units']} units "
          f"({t['beyond']} beyond); references "
          f"{'checked' if result['reference_checked'] else 'not checked (not the default seed)'}")
    for ws in result["working_set"]:
        print(f"  working set: {ws['what']} = {ws['bytes']} B, "
              f"{'fits' if ws['fits_l2'] else 'exceeds'} L2")
    for name, v in metrics.items():
        flag = " (absent)" if v.get("absent") else ""
        print(f"  {name:48s} {v['value']:.6g} {v['unit']}{flag}")
    if result["trace"]:
        print(f"  units_per_s traced {result['units_per_s_traced']:.6g}, "
              f"untraced {result['units_per_s_untraced']:.6g}")
    for u in result["units"]:
        for err in u["errors"][:3]:
            print(f"  unit {u['index']} failed: {err}")


if __name__ == "__main__":
    sys.exit(main())
