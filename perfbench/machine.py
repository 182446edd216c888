"""Machine and version record attached to every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level: int) -> int | None:
    """Size of the unified cache at ``level`` of CPU 0, from sysfs."""
    for idx in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            if int(Path(idx, "level").read_text()) != level:
                continue
            if Path(idx, "type").read_text().strip() == "Instruction":
                continue
            text = Path(idx, "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        return int(text.rstrip("KMG")) * mult
    return None


def _blas() -> dict:
    """OpenBLAS version from numpy's build record and its live thread count."""
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except Exception:  # the config layout is not a stable numpy API
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def source_digest(root: Path) -> str:
    """sha256 over the library sources, a revision id that needs no git."""
    h = hashlib.sha256()
    for p in sorted((root / "src" / "timefreq").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():  # a plain checkout: git would search the parents
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def record(root: Path) -> dict:
    nproc = os.cpu_count()
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else nproc
    blas = _blas()
    if blas["threads"] is not None and blas["threads"] > usable:
        raise RuntimeError(f"BLAS uses {blas['threads']} threads on {usable} usable cores")
    return {
        "nproc": nproc,
        "usable_cpus": usable,
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "git_revision": _git_revision(root),
        "source_digest": source_digest(root),
    }
