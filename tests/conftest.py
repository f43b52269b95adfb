"""Put this checkout's ``src`` on PYTHONPATH, so the CLI tests' ``python -m
relcon.cli`` subprocesses import the same package as the tests do."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
