"""Run metadata recorded with every result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Any, Dict


def _git(root: str, *args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", root, *args],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def collect(root: str, workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Commit and dirty flag (``None`` outside a git checkout), CPU count
    and affinity, interpreter and numpy versions, platform, seed and
    whether tracing was on."""
    try:
        import numpy

        numpy_version: str | None = numpy.__version__
    except ImportError:
        numpy_version = None
    status = _git(root, "status", "--porcelain")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
    }
