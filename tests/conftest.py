"""Put ``src/`` on the import path of the CLI subprocesses that tests start,
as ``pythonpath`` in pyproject.toml does for the test process itself, so a
bare ``pytest`` works in a checkout that is not installed."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
