"""List the library functions that no command-line or benchmark run calls.

    python scripts/reach.py

Run from the root of a checkout.  Under ``sys.setprofile`` the script runs
each ``timefreq`` subcommand once at small arguments, ``tree-select`` again on
``tests/golden/tiles.txt``, one ``--config`` run, one help call and one parse
error (each ended by argparse's ``SystemExit``), and units 0-3 of both
benchmark workloads (``perfbench/workloads.py``, library steps summarised by
its ``library_table``), all writing into a temporary directory.  It then
prints each function or method defined in ``src/timefreq`` that no run called,
with its line count (decorators included), and the total.  The list is a
report, not a gate: it exits 0 unless a run fails.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "timefreq"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def definitions(package: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (qualified name, line count) of every def in the package's modules.

    The first line is that of the first decorator, as in the code object's ``co_firstlineno``.
    """
    out = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name = prefix + child.name
                out[str(path), first] = (name, child.end_lineno - first + 1)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), "")
    return out


def runs(tmp: Path):
    """(label, thunk) per run; each thunk returns 0 on success."""
    import timefreq.cli as cli
    from perfbench.workloads import WORKLOADS, library_table, prepare, run_step

    def subcommand(argv):
        return lambda: cli.main(argv + ["--out", str(tmp / f"{argv[0]}.csv")])

    config = tmp / "config.json"
    config.write_text(json.dumps({"n-max": 9}))
    for argv in (["frame-check", "--num-sets", "1"],
                 ["tree-select"],
                 ["tree-select", "--tiles", str(ROOT / "tests" / "golden" / "tiles.txt")],
                 ["tree-bound", "--trials", "1"],
                 ["mm-scan", "--trials", "1"],
                 ["exceptional", "--runs", "1"],
                 ["rtt-sim", "--log2-n-max", "10"],
                 ["blowup", "--J-list", "8"],
                 ["tails", "--n-max", "2000"]):
        yield " ".join(argv), subcommand(argv)
    yield "--config tails", lambda: cli.main(["--config", str(config), "tails", "--out", str(tmp / "config.csv")])

    def exits(argv, code):
        """A run that argparse ends with ``SystemExit(code)``; its message goes nowhere."""
        def run():
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
            except SystemExit as exc:
                return 0 if exc.code == code else 1
            return 1
        return run

    yield "tails --help", exits(["tails", "--help"], 0)
    yield "tails --n-max 0", exits(["tails", "--n-max", "0"], 2)

    def unit(workload, index):
        def run():
            u = workload.make(0, index, tmp)
            prepare(u)
            for step in u.steps:
                rc, value = run_step(step, cli)
                if rc != 0:
                    return rc
                if step.call is not None:
                    library_table(step.name, value, u.context)
            return 0
        return run

    for workload in WORKLOADS.values():
        for index in range(4):
            yield f"{workload.name} unit {index}", unit(workload, index)


def main() -> int:
    defs = definitions(PACKAGE)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        for label, run in runs(Path(tmp)):
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = run()
            finally:
                sys.setprofile(None)
            if rc != 0:
                print(f"error: run {label!r} exited {rc}", file=sys.stderr)
                return 1
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in called}
    missing = sorted(key for key in defs if key not in reached)
    for path, line in missing:
        name, length = defs[path, line]
        print(f"{Path(path).name}:{line}  {name}  {length} lines")
    print(f"not reached: {len(missing)} of {len(defs)} functions, {sum(defs[k][1] for k in missing)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
