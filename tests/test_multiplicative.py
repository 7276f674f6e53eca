import math
import random
import tracemalloc

import numpy as np
import pytest

from rfree import (
    ResourceLimitError,
    f_value,
    multiplicative,
    omega_vs_tau_check,
    tau_partial_sum_check,
    tau_table,
    tau_value,
    zeta,
)
from rfree.multiplicative import _descending_power_sum, _zeta_cached


def test_zeta_two():
    assert abs(zeta(2) - math.pi**2 / 6) < 2e-12


def test_zeta_four():
    assert abs(zeta(4) - math.pi**4 / 90) < 2e-12


def test_zeta_large_r():
    assert abs(zeta(20) - 1.0000009539620338) < 1e-12


@pytest.mark.parametrize("r,bits", [
    (2, "0x1.a51a6625308b4p+0"),
    (3, "0x1.33ba004f00703p+0"),
    (4, "0x1.151322ac7d929p+0"),
    (5, "0x1.097418eca7dabp+0"),
    (6, "0x1.0470984c09322p+0"),
    (7, "0x1.02232da14d015p+0"),
])
def test_zeta_bits_pinned(r, bits):
    # the chunked sum's order and rounding fix every bit of f_r and so of
    # every main term
    assert zeta(r).hex() == bits


@pytest.mark.parametrize("r,bits", [
    (2, "0x1.a51a66253109ep+0"),
    (3, "0x1.33ba004f00eecp+0"),
    (4, "0x1.151322ac7e114p+0"),
    (5, "0x1.097418eca856fp+0"),
    (6, "0x1.0470984c09afap+0"),
    (7, "0x1.02232da14d795p+0"),
])
def test_zeta_bits_pinned_coarse_target(r, bits):
    # the bits a whole-chunk np.sum gave; the split sum must keep them
    assert _zeta_cached(r, 1e-12).hex() == bits


@pytest.mark.parametrize("n", [1, 129, 2**17, 2**17 + 8, 777_777, 2**20 - 1, 2**20])
def test_zeta_split_sum_matches_np_sum(n):
    terms = np.arange(n + 5, 5, -1, dtype=np.float64) ** -2
    assert _descending_power_sum(n + 5, n, 2) == float(np.sum(terms))


def test_zeta_peak_memory():
    # one 2^17-term float64 piece (1 MiB) alive at a time
    _zeta_cached.cache_clear()
    tracemalloc.start()
    try:
        zeta(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 + 2**16


def test_zeta_rejects_divergent_r():
    with pytest.raises(ValueError):
        zeta(1)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_zeta_converged(r):
    # a 4x tighter target (doubled M twice) moves the value by less than
    # the coarser target's error budget
    coarse = _zeta_cached(r, 1e-10)
    fine = _zeta_cached(r, 2.5e-11)
    assert abs(coarse - fine) < 1e-10 * fine


def test_f_at_one():
    fv = f_value(2, 1)
    assert abs(fv.value - 6 / math.pi**2) < 1e-12
    assert fv.rel_error <= 1e-12


def test_f_at_two():
    fv = f_value(2, 2)
    assert abs(fv.value - 0.810569469139) < 1e-11


def test_f_depends_only_on_radical():
    assert f_value(2, 4).value == f_value(2, 2).value
    assert f_value(3, 12).value == f_value(3, 6).value


def test_f_monotone_under_divisibility():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(1, 5000)
        mult = rng.randint(2, 50)
        small = f_value(2, k).value
        large = f_value(2, k * mult).value
        assert small <= large


def test_f_in_unit_interval():
    for r in (2, 3, 4):
        for k in (1, 2, 6, 30, 210, 9699690):
            v = f_value(r, k).value
            assert 0.0 < v < 1.0


def test_f_validates_factorization():
    with pytest.raises(ValueError):
        f_value(2, 0)
    with pytest.raises(ValueError):
        f_value(1, 10)


def test_tau_examples():
    assert tau_table(3, 4).tau[4] == 6
    assert tau_table(2, 12).tau[12] == 6
    for r in (1, 2, 3, 7):
        assert tau_table(r, 1).tau[1] == 1
        assert tau_value(r, 1) == 1


def test_tau_table_matches_formula():
    tables = {r: tau_table(r, 2000) for r in (2, 3, 4)}
    rng = random.Random(6)
    ns = list(range(1, 101)) + [rng.randint(1, 2000) for _ in range(200)]
    for r, table in tables.items():
        for n in ns:
            assert int(table.tau[n]) == tau_value(r, n), (r, n)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_dirichlet_recursion(r):
    # tau_{r+1}(n) = sum of tau_r over divisors, via independent divisor
    # enumeration in sqrt(n) pairs
    limit = 10_000
    lo = tau_table(r, limit).tau
    hi = tau_table(r + 1, limit).tau
    for n in range(1, limit + 1):
        total = 0
        d = 1
        while d * d <= n:
            if n % d == 0:
                total += int(lo[d])
                if d != n // d:
                    total += int(lo[n // d])
            d += 1
        assert total == int(hi[n]), n


@pytest.mark.parametrize("r", [2, 3])
def test_tau_multiplicative_on_coprime_pairs(r):
    limit = 10_000
    table = tau_table(r, limit).tau
    rng = random.Random(7)
    found = 0
    while found < 1000:
        m = rng.randint(2, 200)
        n = rng.randint(2, limit // m)
        if math.gcd(m, n) != 1:
            continue
        found += 1
        assert int(table[m * n]) == int(table[m]) * int(table[n])


def _tau_by_convolution(r, limit):
    # reference: r - 1 passes of tau_(j+1)(n) = sum over d | n of tau_j(d)
    tau = np.ones(limit + 1, dtype=np.int64)
    tau[0] = 0
    for _ in range(r - 1):
        nxt = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, limit + 1):
            nxt[d::d] += tau[d]
        tau = nxt
    return tau


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 8, 9, 30, 97, 3000])
def test_tau_table_matches_convolution(limit):
    for r in (1, 2, 3, 4, 7):
        assert np.array_equal(tau_table(r, limit).tau, _tau_by_convolution(r, limit)), r


@pytest.mark.parametrize("window", [64, 256])
def test_tau_table_matches_convolution_across_windows(monkeypatch, window):
    # limits at the edges of a short window: every p^e >= window goes through
    # the index arrays, and window**2 still exceeds each limit
    monkeypatch.setattr(multiplicative, "_TAU_WINDOW", window)
    for limit in (window - 1, window, window + 1, 2 * window + 7):
        assert limit < window**2
        for r in (1, 2, 3, 4):
            expected = _tau_by_convolution(r, limit)
            assert np.array_equal(tau_table(r, limit).tau, expected), (window, limit, r)


def _ordered_triples(x):
    # #{(a, b, c) : abc <= x} from the a <= b <= c, each counted with the
    # number of its distinct orderings
    total = 0
    a = 1
    while a**3 <= x:
        b = a
        while a * b * b <= x:
            cs = x // (a * b) - b + 1  # the c >= b
            if a == b:
                total += 1 + 3 * (cs - 1)  # (a, a, a), then (a, a, c > a)
            else:
                total += 3 + 6 * (cs - 1)  # (a, b, b), then (a, b, c > b)
            b += 1
        a += 1
    return total


def test_tau_3_sum_counts_ordered_triples():
    # sum of tau_3 over n <= x is #{abc <= x}; x = 10^6 spans 16 windows
    assert _ordered_triples(100) == sum(tau_value(3, n) for n in range(1, 101))
    xs = [10**6, 2**16, 2**16 - 1]
    rows = tau_partial_sum_check(3, xs)
    assert [row.total for row in rows] == [_ordered_triples(x) for x in xs]


def test_tau_partial_sum_memory_is_flat_in_x():
    # a table of tau_3 below 5 * 10^6 would take 40 MB
    tracemalloc.start()
    try:
        rows = tau_partial_sum_check(3, [5 * 10**6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[0].total == _ordered_triples(5 * 10**6)
    assert peak < 4 * 2**20


def test_tau_overflow_detected():
    with pytest.raises(OverflowError):
        tau_table(150, 8192)
    # accepted as before: the largest value, 5454680000, is tau_20(8640)
    table = tau_table(20, 10**4)
    assert int(table.tau.max()) == 5_454_680_000 == int(table.tau[8640])


def test_tau_validation():
    with pytest.raises(ValueError):
        tau_table(0, 10)
    with pytest.raises(ValueError):
        tau_table(2, 0)


@pytest.mark.parametrize("limit", [2**32, 300_000_000])
def test_tau_table_refused_before_allocating(limit):
    # 2**32 is past the ceiling; 3e8 int64 values (2.4 GB) are over the budget
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            tau_table(2, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_partial_sum_refuses_x_past_2_32_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="2\\*\\*32"):
            tau_partial_sum_check(2, [10, 2**32])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_partial_sum_r1_is_identity():
    rows = tau_partial_sum_check(1, [10, 100, 1000])
    for row in rows:
        assert row.total == row.x
        assert row.ratio == 1.0


def test_partial_sum_r2_at_100():
    # oracle: sum over d <= 100 of floor(100/d)
    expected = sum(100 // d for d in range(1, 101))
    assert expected == 482
    row = tau_partial_sum_check(2, [100])[0]
    assert row.total == 482


def test_partial_sum_ratio_slowly_varying():
    rows = tau_partial_sum_check(2, [10_000, 100_000])
    assert all(0.5 < row.ratio < 2.0 for row in rows)
    assert abs(rows[1].ratio / rows[0].ratio - 1) < 0.25


def test_partial_sum_validation():
    with pytest.raises(ValueError):
        tau_partial_sum_check(2, [2])
    with pytest.raises(ValueError, match="xs must be nonempty"):
        tau_partial_sum_check(2, [])


def test_omega_vs_tau_squarefree_equality(factors_1e5):
    # for squarefree k the two sides agree exactly
    taus = tau_table(3, 1000).tau
    for k in (1, 2, 6, 30, 210, 770):
        assert 3 ** int(factors_1e5.omega[k]) == int(taus[k])


def test_omega_vs_tau_small_cases(factors_1e5):
    assert 2 ** int(factors_1e5.omega[4]) == 2
    assert tau_value(2, 4) == 3


@pytest.mark.parametrize("r", [2, 3, 4])
def test_omega_vs_tau_check_holds(r):
    assert omega_vs_tau_check(r, 5000)


def test_zeta_three():
    assert abs(zeta(3) - 1.2020569031595943) < 2e-12
