"""Collect result sets and compare them.

Collect ten seeds of every workload from one or two checkouts, alternating
which checkout runs first from seed to seed:

    python3 perfbench/compare.py collect --out /tmp/sets \\
        --checkout parent=../parent --checkout change=. --seeds 0-9

Summarize one set, or compare a base set with a change set:

    python3 perfbench/compare.py diff /tmp/sets/parent [/tmp/sets/change]

For each workload and end-to-end metric the comparison prints both medians
and quartiles, the pair wins (runs paired by seed), and a verdict by the
rule of the choosing-metrics guide, section 8:

- ``gain``: the change wins at least nine tenths of the pairs, ties counting
  for neither, and the medians differ by more than the base's own
  interquartile distance;
- ``better (every run)``: every change run beats every base run;
- ``unresolved``: a set's interquartile spread, as a share of its median,
  is wider than the metric's bound, so no-regression cannot be shown;
- ``regression``: the change's median is worse than the base's by more than
  the bound;
- ``within bound``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def collect(args) -> int:
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    checkouts = [c.split("=", 1) for c in (args.checkout or ["current=."])]
    out = Path(args.out)
    for i, seed in enumerate(_seeds(args.seeds)):
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for wl in workloads:
            for label, root in order:
                root = Path(root).resolve()
                cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                print(f"{label} {wl} seed {seed}: exit {proc.returncode} {last[0][:160]}")
                if proc.returncode != 0:
                    print(proc.stderr[-2000:], file=sys.stderr)
                    return 1
                rec = root / ".perfbench_out" / "results" / f"{wl}-seed{seed}-trace0.json"
                dest = out / label
                dest.mkdir(parents=True, exist_ok=True)
                shutil.copy(rec, dest / rec.name)
    return 0


def load_set(path: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> end-to-end metric values, from untraced records."""
    out: dict[str, dict[int, dict]] = {}
    for f in sorted(path.glob("*.json")):
        rec = json.loads(f.read_text())
        if rec.get("trace"):
            continue
        out.setdefault(rec["workload"], {})[rec["seed"]] = {
            k: v["value"] for k, v in rec["metrics"].items()}
    return out


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def verdict(base: dict, change: dict, a: dict, b: dict, metric: dict) -> tuple[str, str]:
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(x, y):
        return x < y if lower else x > y

    seeds = sorted(set(base) & set(change))
    wins = sum(better(change[s], base[s]) for s in seeds)
    losses = sum(better(base[s], change[s]) for s in seeds)
    pairs = f"{wins}/{len(seeds)} won, {losses} lost"
    diff = b["median"] - a["median"]
    if seeds and wins >= 0.9 * len(seeds) and abs(diff) > a["q3"] - a["q1"] and better(
            b["median"], a["median"]):
        return "gain", pairs
    if all(better(y, x) for y in change.values() for x in base.values()):
        return "better (every run)", pairs
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved", pairs
    worse = diff if lower else -diff
    if worse > bound * abs(a["median"]):
        return "regression", pairs
    return "within bound", pairs


def diff(args) -> int:
    spec = _spec()
    metrics = spec["end_to_end"]
    base = load_set(Path(args.base))
    change = load_set(Path(args.change)) if args.change else None
    status = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        if wl not in base:
            print(f"{wl}: no results in {args.base}")
            continue
        print(f"{wl} ({len(base[wl])} base runs"
              + (f", {len(change.get(wl, {}))} change runs)" if change else ")"))
        for m in metrics:
            name = m["name"]
            av = {s: v[name] for s, v in base[wl].items()}
            a = stats(list(av.values()))
            line = (f"  {name:12s} base {a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}] "
                    f"spread {a['spread']:.3f} (bound {m['bound']}) {m['unit']}")
            if change is not None and wl in change:
                bv = {s: v[name] for s, v in change[wl].items()}
                b = stats(list(bv.values()))
                v, pairs = verdict(av, bv, a, b, m)
                status |= v == "regression"
                line += (f" | change {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}] "
                         f"spread {b['spread']:.3f} | {pairs} | {v}")
            elif a["spread"] > m["bound"] / 3:
                line += "  <- spread above a third of the bound"
            print(line)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Collect and compare benchmark result sets.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run seeds x workloads and keep the records")
    c.add_argument("--out", required=True)
    c.add_argument("--checkout", action="append",
                   help="NAME=PATH of a checkout to run; give two to alternate them")
    c.add_argument("--seeds", default="0-9")
    c.set_defaults(func=collect)
    d = sub.add_parser("diff", help="summarize one result set or compare two")
    d.add_argument("base")
    d.add_argument("change", nargs="?")
    d.set_defaults(func=diff)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
