import itertools
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import rfree.multiplicative as mult
from rfree import (
    ResourceLimitError,
    f_value,
    tau_partial_sum_check,
    tau_value,
    trial_factorize,
    zeta,
)
from rfree.multiplicative import _ZETA_TARGET, _tau_sum


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
    # the pinned bits fix every bit of f_r and so of every main term
    assert zeta(r).hex() == bits


def test_zeta_rejects_divergent_r():
    with pytest.raises(ValueError):
        zeta(1)


def test_zeta_and_f_refuse_non_integer_r():
    # a float r would read the table entry of another r
    for call in (lambda: zeta(2.5), lambda: zeta(3.0), lambda: f_value(2.5, 6)):
        with pytest.raises(TypeError):
            call()


def _bernoulli(n):
    """B_0 ... B_n as fractions, from sum over j <= m of C(m + 1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


_B = _bernoulli(50)


def _zeta_decimal(r, n=30, terms=20):
    """zeta(r) to about 50 digits by Euler-Maclaurin summation from n:
    the sum over m < n of m^(-r), the integral n^(1-r) / (r - 1), half the
    n-th term, and ``terms`` Bernoulli corrections
    B_2j / (2j)! * r (r + 1) ... (r + 2j - 2) * n^(1 - r - 2j)."""
    with localcontext() as ctx:
        ctx.prec = 50
        big = Decimal(n)
        total = sum(Decimal(m) ** -r for m in range(1, n)) + big ** (1 - r) / (r - 1)
        total += big ** -r / 2
        rising = Decimal(r)
        for j in range(1, terms + 1):
            b = _B[2 * j]
            total += (Decimal(b.numerator) / b.denominator / math.factorial(2 * j)
                      * rising * big ** (1 - r - 2 * j))
            rising *= (r + 2 * j - 1) * (r + 2 * j)
        return total


def test_zeta_decimal_oracle_converged():
    # two cut points agree far below the float budget, so the oracle is exact
    # to the precision the checks below need
    for r in (2, 3, 7, 20, 63):
        one, two = _zeta_decimal(r), _zeta_decimal(r, n=45, terms=25)
        assert abs(one - two) < Decimal("1e-40") * one, r
    assert abs(float(_zeta_decimal(2)) - math.pi**2 / 6) <= 2.3e-16
    assert abs(float(_zeta_decimal(4)) - math.pi**4 / 90) <= 2.3e-16


def test_zeta_table_meets_its_budget():
    target = Decimal(_ZETA_TARGET)
    assert len(mult._ZETA) == 52
    for r in range(2, 64):
        true = _zeta_decimal(r)
        value = zeta(r)
        assert abs(Decimal(value) - true) <= target * true, r
        if r < 54:
            assert value == mult._ZETA[r - 2], r
        else:
            assert value == 1.0, r
    for r in (64, 100, 1000, 2**62, 2**63 - 1):
        assert zeta(r) == 1.0, r


@pytest.mark.parametrize("r", [2, 3, 7, 20])
def test_f_value_meets_its_error_budget(r):
    for k in (1, 12, 720720):
        fv = f_value(r, k)
        with localcontext() as ctx:
            ctx.prec = 50
            true = 1 / _zeta_decimal(r)
            for p, _ in trial_factorize(k).factors:
                true /= 1 - Decimal(p) ** -r
        assert abs(Decimal(fv.value) - true) <= Decimal(fv.rel_error) * true, (r, k)


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
    assert tau_value(3, 4) == 6
    assert tau_value(2, 12) == 6
    for r in (1, 2, 3, 7):
        assert tau_value(r, 1) == 1


@pytest.mark.parametrize("r", [1, 2, 3])
def test_dirichlet_recursion(r):
    # tau_{r+1}(n) = sum of tau_r over divisors, via independent divisor
    # enumeration in sqrt(n) pairs
    limit = 10_000
    for n in range(1, limit + 1):
        total = 0
        d = 1
        while d * d <= n:
            if n % d == 0:
                total += tau_value(r, d)
                if d != n // d:
                    total += tau_value(r, n // d)
            d += 1
        assert total == tau_value(r + 1, n), n


@pytest.mark.parametrize("r", [2, 3])
def test_tau_multiplicative_on_coprime_pairs(r):
    limit = 10_000
    table = _tau_by_convolution(r, limit)
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
def test_tau_value_matches_convolution(limit):
    for r in (1, 2, 3, 4, 7):
        values = [0] + [tau_value(r, n) for n in range(1, limit + 1)]
        assert values == _tau_by_convolution(r, limit).tolist(), r


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
    # sum of tau_3 over n <= x is #{abc <= x}; 2^16 - 1 and 2^16 sit on
    # either side of a square, 255^2 < 2^16 - 1 < 2^16 = 256^2
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


def test_tau_sum_exact_past_int64():
    # the sum of tau_150 below 8192 passes 2**63; Python ints keep it exact
    for r, x in ((150, 8192), (20, 10**4)):
        total = tau_partial_sum_check(r, [x])[0].total
        assert total == sum(tau_value(r, n) for n in range(1, x + 1)), r
    assert total == 92_675_189_684


def test_tau_validation():
    with pytest.raises(ValueError, match="r must be >= 1"):
        tau_partial_sum_check(0, [10])
    with pytest.raises(ValueError, match="r must be >= 1"):
        tau_partial_sum_check(-3, [10])
    # an r so large that x * (log x)^(r-1) overflows is refused at once,
    # before any of its r - 1 levels runs
    with pytest.raises(OverflowError, match="overflows a float"):
        tau_partial_sum_check(2**62, [3])


def test_tau_sum_matches_prefix_sums_of_tau_value():
    # the sums at every x >= 3 up to 2000, so each tau_r(n), n >= 4, is a
    # difference of two of them; the floor values x // m cross between the
    # lists held for m <= top and for a <= isqrt(x) at every square
    for r in (2, 3, 4):
        values = [0] + [tau_value(r, n) for n in range(1, 2001)]
        prefix = list(itertools.accumulate(values))
        assert [_tau_sum(r, x) for x in range(3, 2001)] == prefix[3:], r


@pytest.mark.parametrize("x", [10**8, *(n * n + d for n in (1000, 65535) for d in (-1, 0, 1))])
def test_tau_sum_r2_matches_closed_form(x):
    # D_2(x) = 2 * sum over i <= sqrt(x) of x // i - isqrt(x)^2, at x = 1e8
    # and at n^2 - 1, n^2, n^2 + 1 for n = 1000 and 65535
    root = math.isqrt(x)
    assert _tau_sum(2, x) == 2 * sum(x // i for i in range(1, root + 1)) - root * root


def test_partial_sum_refuses_x_past_2_32_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="2\\*\\*32"):
            tau_partial_sum_check(2, [10, 2**32])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_partial_sum_refuses_by_cost_before_any_level(monkeypatch):
    # (r - 2) * x^(3/4) summed over the xs is refused past 2**25 steps,
    # which admits r = 4 at any x below 2**32
    def no_sum(r, x):
        raise AssertionError("summed before the cost was checked")

    monkeypatch.setattr(mult, "_tau_sum", no_sum)
    for r, xs in ((200, [4 * 10**9, 3]), (5, [2**32 - 1]), (4, [2**32 - 1, 2**32 - 1])):
        with pytest.raises(ResourceLimitError, match="budget"):
            tau_partial_sum_check(r, xs)
    monkeypatch.setattr(mult, "_tau_sum", lambda r, x: x)
    for r, xs in ((4, [2**32 - 1]), (3, [2**32 - 1]), (1000, [3]), (20, [10**4]),
                  (150, [8192])):
        assert [row.total for row in tau_partial_sum_check(r, xs)] == xs


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


def test_r_to_omega_equals_tau_r_on_squarefree():
    # for squarefree k the two sides agree exactly
    for k in (1, 2, 6, 30, 210, 770):
        assert 3 ** trial_factorize(k).omega == tau_value(3, k)


def test_r_to_omega_vs_tau_r_small_cases():
    assert 2 ** trial_factorize(4).omega == 2
    assert tau_value(2, 4) == 3


@pytest.mark.parametrize("r", [2, 3, 4])
def test_r_to_omega_at_most_tau_r(r):
    for k in range(1, 5001):
        assert r ** trial_factorize(k).omega <= tau_value(r, k), k


def test_zeta_three():
    assert abs(zeta(3) - 1.2020569031595943) < 2e-12
