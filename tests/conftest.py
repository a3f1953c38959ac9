"""Put ``src/`` on the import path of the CLI subprocesses that tests start,
as ``pythonpath`` in pyproject.toml does for the test process itself, so a
bare ``pytest`` works in a checkout that is not installed."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool asked for.  The stand-in pool
    fails to start, so the caller warns, runs its calls in order, and no
    worker process starts."""
    import concurrent.futures

    seen = []

    def pool(max_workers, **kwargs):
        seen.append(max_workers)
        raise OSError("recorded, not started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return seen
