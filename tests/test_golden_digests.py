"""Golden output digests: a small canonical set of `qest` outputs is
regenerated and its SHA-256 digests compared with tests/golden_digests.json.

Each entry records whether it is portable and the fingerprint it was taken
under (numpy version, BLAS configuration, numpy's found SIMD extensions).
Portable entries are gated everywhere.  Rounding-level outputs depend on the
BLAS kernel and SIMD dispatch, so a non-portable entry is gated only where
the fingerprint matches and is skipped by name elsewhere.

After a change that moves output bytes on purpose, rewrite the file with

    PYTHONPATH=src python tests/test_golden_digests.py

and list each moved digest in the change's notes.  An entry keeps its
`portable` flag when rewritten; a new entry starts out not portable.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from qest import cli

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
CUSTOM = "[[2,0.3,0],[0.3,1,0.1],[0,0.1,0.5]]"
SIMULATE = ["simulate", "--m", "400", "--reps", "12", "--seed", "2024"]

# entry name -> (argv, output): "stdout", or the estimator whose CSV
# `qest simulate --out` writes
ENTRIES = {
    **{f"verify-{suite}-seed{seed}": (["verify", "--suite", suite, "--seed", str(seed)], "stdout")
       for suite in ("lemmas", "bounds") for seed in (1, 2, 3)},
    **{f"mub-q{q}-bounds": (["mub", "--q", str(q), "--bounds"], "stdout") for q in (3, 4)},
    "bounds-identity": (["bounds", "--weight", "identity"], "stdout"),
    "bounds-qfi": (["bounds", "--weight", "qfi"], "stdout"),
    "bounds-custom": (["bounds", "--weight", "custom", "--f", "2", "--g", "0.5"], "stdout"),
    "indicatrix-qfi": (["indicatrix", "--weight", "qfi"], "stdout"),
    **{f"simulate-{name}-{est}": ([*SIMULATE, *weight], est)
       for name, weight in (("qfi", ["--weight", "qfi"]), ("identity", ["--weight", "identity"]),
                            ("tomography", ["--weight", "tomography"]),
                            ("custom", ["--weight", "custom", "--weight-matrix", CUSTOM]))
       for est in ("adaptive", "tomography")},
}


def _openblas_runtime_config() -> str | None:
    """The configuration string of the OpenBLAS that numpy loaded, which
    names the kernel chosen for this CPU, or None when it cannot be read."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            func = getattr(lib, name, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_char_p
                return func().decode()
    return None


@functools.cache
def fingerprint() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": _openblas_runtime_config() or blas.get("openblas configuration") or str(blas),
        "simd": list(config.get("SIMD Extensions", {}).get("found", [])),
    }


class _Outputs:
    """Runs each command once, however many entries read its outputs."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.runs = {}

    def digest(self, name: str) -> str:
        argv, output = ENTRIES[name]
        if tuple(argv) not in self.runs:
            prefix = self.workdir / f"run{len(self.runs)}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([*argv, "--out", str(prefix)] if argv[0] == "simulate" else argv)
            assert code == 0, f"qest {' '.join(argv)} exited {code}"
            self.runs[tuple(argv)] = (buf.getvalue(), prefix)
        stdout, prefix = self.runs[tuple(argv)]
        data = stdout.encode() if output == "stdout" else Path(f"{prefix}_{output}.csv").read_bytes()
        return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("QEST_THREADS", "1")
        yield _Outputs(tmp_path_factory.mktemp("golden"))


GOLDEN = json.loads(DIGEST_FILE.read_text())


def test_every_entry_has_a_digest():
    assert sorted(GOLDEN) == sorted(ENTRIES)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_output_matches_its_golden_digest(name, outputs):
    entry = GOLDEN[name]
    if not entry["portable"] and entry["fingerprint"] != fingerprint():
        pytest.skip(f"{name}: taken under another numpy, BLAS or SIMD fingerprint")
    assert outputs.digest(name) == entry["sha256"], f"{name} moved"


def write_digests(path: Path = DIGEST_FILE) -> None:
    import tempfile

    old = json.loads(path.read_text()) if path.exists() else {}
    os.environ["QEST_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        outs = _Outputs(Path(tmp))
        doc = {name: {"portable": old.get(name, {}).get("portable", False),
                      "fingerprint": fingerprint(), "sha256": outs.digest(name)}
               for name in sorted(ENTRIES)}
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    write_digests(Path(sys.argv[1]) if len(sys.argv) > 1 else DIGEST_FILE)
