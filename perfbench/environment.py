"""What a result was measured on: code, interpreter, BLAS, threads, cores, seed."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np


def peak_rss_mb() -> float:
    """Largest peak resident set size of this process and its ended children (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:  # no git program
        return None
    return done.stdout.strip() or None


def source_sha256(package: Path) -> str:
    """Digest of the package sources and data, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def record(root: Path, seed: int, thread_variables) -> dict:
    return {
        "commit": _commit(root),
        "source_sha256": source_sha256(root / "src" / "rxnseq"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {name: os.environ.get(name) for name in ("RXNSEQ_THREADS", *thread_variables)},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }
