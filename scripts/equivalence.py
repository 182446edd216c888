"""Compare the stored outputs of two revisions byte for byte.

    python scripts/equivalence.py REV [REV2]

REV and REV2 are git revisions; REV2 defaults to the working tree.  Each
revision is checked out with ``git worktree add`` into a temporary directory,
which is removed afterwards.  Each tree then writes the stored set of its own
``tests/test_golden.py``, by that file's ``capture`` and ``acceptance6_text``,
with the tree's ``src`` and ``tests`` first on the path, so that each revision
calls its library by its own signatures: the CSV of each of the eight
subcommands at its default arguments, ``rtt_sim.plot.txt``, ``tree-select`` on
``tests/golden/tiles.txt`` with its ``.tiles.txt``, and ``acceptance6.json``.

For each file the script prints whether the bytes are identical and, if not,
the first line that differs.  It exits with 1 when any file differs.  ``-h`` or
``--help`` prints this text; any other argument that starts with ``-`` is
refused with exit code 2, before anything is checked out.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh interpreter with the tree's src first on the path
CAPTURE = """
import sys
from pathlib import Path

import timefreq
import test_golden

src, out = Path(sys.argv[1]), Path(sys.argv[2])
if not Path(timefreq.__file__).resolve().is_relative_to(src.resolve()):
    sys.exit(f"timefreq was imported from {timefreq.__file__}, not from {src}")
test_golden.capture(out)
(out / "acceptance6.json").write_text(test_golden.acceptance6_text())
"""


@contextlib.contextmanager
def worktree(rev: str, parent: Path):
    """A detached checkout of ``rev`` under ``parent``, removed on exit."""
    path = parent / "tree"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(path), rev], check=True)
    try:
        yield path
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)], check=True)


def capture(tree: Path, out: Path) -> None:
    """Write the stored set of outputs of the checkout ``tree`` into ``out``, by its own tests."""
    out.mkdir()
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tree / "tests")]))
    subprocess.run([sys.executable, "-c", CAPTURE, str(src), str(out)], env=env, cwd=out,
                   check=True, stdout=subprocess.DEVNULL)


def capture_rev(rev: str | None, tmp: Path, label: str) -> Path:
    out = tmp / label
    if rev is None:
        capture(ROOT, out)
    else:
        with tempfile.TemporaryDirectory(dir=tmp) as parent, worktree(rev, Path(parent)) as tree:
            capture(tree, out)
    return out


def first_difference(a: bytes, b: bytes) -> str:
    """The first differing line of two files, with its number."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {i}: {x.decode()!r} != {y.decode()!r}"
    i = min(len(lines_a), len(lines_b)) + 1
    return f"line {i}: only one file has it" if len(lines_a) != len(lines_b) else "line endings differ"


def main(argv: list[str]) -> int:
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        return 0
    options = [a for a in argv if a.startswith("-")]
    if options:
        print(f"error: unknown option {options[0]}; see --help", file=sys.stderr)
        return 2
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    rev_a, rev_b = argv[0], argv[1] if len(argv) == 2 else None
    print(f"{rev_a} against {rev_b or 'the working tree'}")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            out_a = capture_rev(rev_a, Path(tmp), "a")
            out_b = capture_rev(rev_b, Path(tmp), "b")
        except subprocess.CalledProcessError as exc:
            print(f"error: a capture failed (exit code {exc.returncode}); see the traceback above", file=sys.stderr)
            return 2
        names = sorted({p.name for p in out_a.iterdir()} | {p.name for p in out_b.iterdir()})
        same = 0
        for name in names:
            a, b = out_a / name, out_b / name
            if not (a.exists() and b.exists()):
                print(f"{name}: only in {rev_a if a.exists() else rev_b or 'the working tree'}")
            elif a.read_bytes() == b.read_bytes():
                same += 1
                print(f"{name}: bytes identical")
            else:
                print(f"{name}: bytes differ, {first_difference(a.read_bytes(), b.read_bytes())}")
    print(f"{same} of {len(names)} files identical")
    return 0 if same == len(names) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
