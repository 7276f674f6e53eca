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


def wrong_mobius(monkeypatch, changes):
    """Make ``sieve.mobius_sieve`` return its table with mu(n) = value for
    each n, value of ``changes``."""
    true = sieve.mobius_sieve

    def wrong(limit):
        mu = true(limit).copy()
        for n, value in changes.items():
            mu[n] = value
        return mu

    monkeypatch.setattr(sieve, "mobius_sieve", wrong)


def run_rfree(*args: str, python_flags=(), timeout=60) -> subprocess.CompletedProcess:
    """``python -m rfree.cli ARGS`` as its own process, importing this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "rfree.cli", *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="session")
def mu_1e5():
    return mobius_sieve(100_000)
