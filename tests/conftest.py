import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rfree import mobius_sieve, sieve

SRC = Path(__file__).resolve().parents[1] / "src"


def r_free_flags(x, r):
    """The r-free flags of n in [0, x], one uint8 0/1 per n: copies of the
    windows of the kernel loop ``sieve._r_free_windows``."""
    return np.concatenate([window.copy() for _, window in sieve._r_free_windows(x, r)])


def run_python(*args: str, cwd=None, timeout=60) -> subprocess.CompletedProcess:
    """``python ARGS`` as its own process, importing this checkout."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=timeout)


def run_rfree(*args: str, python_flags=(), timeout=60) -> subprocess.CompletedProcess:
    """``python -m rfree.cli ARGS`` as its own process."""
    return run_python(*python_flags, "-m", "rfree.cli", *args, timeout=timeout)


@pytest.fixture(scope="session")
def mu_1e5():
    return mobius_sieve(100_000)
