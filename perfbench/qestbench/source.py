"""Locate the checkout, import `qest` from its `src` tree, and describe the
machine and program a result was measured on."""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


class MissingProgramError(RuntimeError):
    """The checkout holds no `src/qest` package to measure."""


def import_qest():
    """Import `qest` from this checkout's `src`, never from elsewhere."""
    if not (SRC / "qest" / "__init__.py").is_file():
        raise MissingProgramError(f"no qest package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    qest = importlib.import_module("qest")
    if Path(qest.__file__).resolve().parent != SRC / "qest":
        raise MissingProgramError(f"qest was imported from {qest.__file__}, not {SRC}")
    return qest


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without walking up past it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the measured package's files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qest").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }
