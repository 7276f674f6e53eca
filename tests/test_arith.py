import json
import time

import numpy as np
import pytest

from conftest import run_rfree
from rfree import f_value, is_r_free, tau_value, trial_factorize
from rfree.arith import _int_rth_root, primes_upto


@pytest.mark.parametrize("n,factors", [
    (2**61 - 1, ((2**61 - 1, 1),)),  # a Mersenne prime
    ((2**31 - 1) ** 2, ((2**31 - 1, 2),)),
    ((2**31 - 1) * (2**32 + 15), ((2**31 - 1, 1), (2**32 + 15, 1))),
    # a strong pseudoprime to every prime base up to 23
    (3825123056546413051, ((149491, 1), (747451, 1), (34233211, 1))),
    (12 * 65537**2 * (2**31 - 1), ((2, 2), (3, 1), (65537, 2), (2**31 - 1, 1))),
    (2**63 - 25, ((2**63 - 25, 1),)),  # the largest prime below 2**63
])
def test_trial_factorize_large_factors(n, factors):
    assert trial_factorize(n).factors == factors


def test_non_integers_are_refused_and_numpy_integers_factored():
    # 12 is factored (and cached) first, so a float equal to it must not
    # find its cache entry; unchecked, f_value(2, 12.5) gave a value with a
    # 1e-13 budget and tau_value(2, 12.0) gave 6
    assert trial_factorize(12).factors == ((2, 2), (3, 1))
    for call in (
        lambda: trial_factorize(12.0),
        lambda: trial_factorize(12.5),
        lambda: f_value(2, 12.5),
        lambda: f_value(2, 12.0),
        lambda: tau_value(2, 12.0),
        lambda: is_r_free(12.0, 2),
    ):
        with pytest.raises(TypeError):
            call()
    for n in (np.int64(12), np.uint32(12), np.int8(12)):
        fact = trial_factorize(n)
        assert fact == trial_factorize(12) and type(fact.n) is int
    assert tau_value(2, np.int64(12)) == 6 and is_r_free(np.int64(12), 3)


def test_f_with_a_large_prime_modulus_exits_0():
    k = 2**61 - 1
    done = run_rfree("f", "--r", "2", "--k", str(k), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{f_value(2, k).value:.12f}\n"


def test_error_with_a_square_of_a_large_prime_exits_0():
    done = run_rfree("error", "--x", "1000", "--r", "2", "--k", str((2**31 - 1) ** 2),
                     "--l", "5", "--format", "json", timeout=30)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert (payload["g"], payload["R"]) == (1, 1)  # n = 5 is the one term up to 1000


def test_primes_upto():
    assert primes_upto(0) == primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert len(primes_upto(65536)) == 6542  # pi(2**16)
    by_trial = [n for n in range(2, 10**4 + 1) if trial_factorize(n).factors == ((n, 1),)]
    assert primes_upto(10**4) == by_trial


def test_int_rth_root_huge_r_returns_at_once():
    start = time.perf_counter()
    assert _int_rth_root(2**63 - 1, 10**11) == 1
    assert _int_rth_root(0, 10**11) == 0
    assert time.perf_counter() - start < 1.0  # 2**(10**11) is never formed
