"""Byte-identity guard: committed sweep configs must reproduce committed digests.

Each ``tests/identity/*.cfg`` runs through ``relcon run`` at ``--parallel 1``,
in a fresh process with BLAS threads pinned to 1 through the environment.
The last bits of a training run depend on OpenBLAS's thread count, and
``tiny_noise.cfg`` shows them, so relcon sets one BLAS thread itself; that
config also runs at ``OPENBLAS_NUM_THREADS=2`` against the same digests.
The sha256 of ``results.csv``, ``summary.csv`` and every per-run file
(``curves.csv``, ``metrics.json``, relation and distance dumps) must equal
the entry in ``tests/identity/digests.json``; ``report.json`` is left out,
since it holds the wall time.

A change that alters numbers on purpose rewrites the digest file with

    python tests/test_identity.py

and records that, with criterion 7's margins before and after.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent / "identity"
DIGESTS = HERE / "digests.json"
CONFIGS = sorted(HERE.glob("*.cfg"))
_ENV = dict(os.environ, PYTHONPATH=str(HERE.parents[1] / "src"),
            OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_digests(config: Path, out: Path, env: dict[str, str] = _ENV) -> dict[str, str]:
    """Run one config into ``out``; sha256 of each output file by relative path."""
    subprocess.run([sys.executable, "-m", "relcon.cli", "run", str(config), "--out", str(out),
                    "--parallel", "1"], env=env, check=True, capture_output=True, timeout=300)
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "report.json"}


def test_every_config_has_digests():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == \
        [config.stem for config in CONFIGS]


def _assert_digests(config: Path, out: Path, env: dict[str, str] = _ENV) -> None:
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[config.stem]
    got = run_digests(config, out, env)
    differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differ, f"{len(differ)} of {len(want)} files differ: {differ[:10]}"


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_outputs_match_committed_digests(config, tmp_path):
    _assert_digests(config, tmp_path / config.stem)


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """Two BLAS threads in the environment change no output bit: relcon
    runs its BLAS on one thread whatever the environment asks for."""
    _assert_digests(HERE / "tiny_noise.cfg", tmp_path / "tiny_noise",
                    dict(_ENV, OPENBLAS_NUM_THREADS="2"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {config.stem: run_digests(config, Path(tmp) / config.stem)
                   for config in CONFIGS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, digests.values()))} digests of {len(digests)} configs "
          f"to {DIGESTS}")
