import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rfree import build_sieve, factor_sieve

SRC = Path(__file__).resolve().parents[1] / "src"


def unpacked(table, r):
    """The r-free flags of ``table`` as one uint8 0/1 per n in [0, limit]."""
    return np.unpackbits(table.mu_r[r], count=table.limit + 1)


def run_rfree(*args: str, python_flags=(), timeout=60) -> subprocess.CompletedProcess:
    """``python -m rfree.cli ARGS`` as its own process, importing this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "rfree.cli", *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="session")
def table_1e4():
    return build_sieve(10_000, {2, 3})


@pytest.fixture(scope="session")
def table_1e5():
    return build_sieve(100_000, {2, 3, 4})


@pytest.fixture(scope="session")
def factors_1e5():
    return factor_sieve(100_000)


@pytest.fixture(scope="session")
def table_1e6():
    return build_sieve(1_000_000, {2, 3})
