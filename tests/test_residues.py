import hashlib
import math
import random

import numpy as np
import pytest

from rfree import (
    ModulusMaximum,
    ResourceLimitError,
    count_solutions,
    count_solutions_bruteforce,
    counts_vector,
    per_modulus_maxima,
    residues,
    trial_factorize,
)
from rfree.cli import main
from rfree.residues import _count_prime_power


def _brute_histogram(r, s):
    hist = [0] * s
    for d in range(s):
        hist[pow(d, r, s)] += 1
    return hist


def test_bruteforce_examples():
    assert count_solutions_bruteforce(2, 1, 8) == 4
    assert count_solutions_bruteforce(2, 2, 3) == 0
    assert count_solutions_bruteforce(5, 0, 1) == 1
    assert count_solutions_bruteforce(3, 0, 1) == 1


def test_crt_counter_examples():
    assert count_solutions(3, 1, 9).count == 3
    assert count_solutions(2, 1, 24).count == 8
    assert count_solutions(2, 0, 4).count == 2


def test_crt_counter_bound_field():
    rc = count_solutions(2, 1, 24)
    assert rc.bound == 2.0 * 2 ** trial_factorize(24).omega
    assert rc.count <= rc.bound


@pytest.mark.parametrize("r", [2, 3, 4])
def test_oracle_equivalence_small_moduli(r):
    for s in range(1, 300):
        vec = counts_vector(r, s)
        assert list(vec) == _brute_histogram(r, s), (r, s)


def test_scalar_matches_vector():
    rng = random.Random(40)
    for _ in range(200):
        s = rng.randint(1, 1500)
        a = rng.randrange(s)
        r = rng.choice([2, 3, 4])
        assert count_solutions(r, a, s).count == int(counts_vector(r, s)[a])


@pytest.mark.parametrize(
    "pe,p",
    [(2, 2), (2**2, 2), (2**5, 2), (2**7, 2), (2**9, 2),
     (3, 3), (3**2, 3), (3**5, 3), (5**4, 5), (7**3, 7)],
)
@pytest.mark.parametrize("r", [2, 3, 4, 6, 8, 12])
def test_unit_group_path_matches_bruteforce(pe, p, r):
    for a in range(1, min(pe, 80)):
        if a % p == 0:
            continue
        fast = count_solutions(r, a, pe).count
        slow = count_solutions_bruteforce(r, a, pe)
        assert fast == slow, (r, a, pe)


def test_nonunit_fallback_above_threshold():
    for a in (0, 2, 4, 8, 32, 64):
        fast = count_solutions(2, a, 128).count
        assert fast == count_solutions_bruteforce(2, a, 128)


def test_crt_multiplicativity():
    rng = random.Random(41)
    found = 0
    while found < 500:
        s1 = rng.randint(2, 100)
        s2 = rng.randint(2, 10_000 // s1)
        if math.gcd(s1, s2) != 1:
            continue
        found += 1
        s = s1 * s2
        a = rng.randrange(s)
        r = rng.choice([2, 3])
        whole = count_solutions(r, a, s).count
        part1 = count_solutions(r, a % s1, s1).count
        part2 = count_solutions(r, a % s2, s2).count
        assert whole == part1 * part2


@pytest.mark.parametrize("r", [2, 3, 4])
def test_unit_bound_small_moduli(r):
    for s in range(1, 300):
        vec = counts_vector(r, s)
        units = np.gcd(np.arange(s, dtype=np.int64), s) == 1
        assert int(vec[units].max()) <= 2 * r ** trial_factorize(s).omega, (r, s)


def test_per_modulus_maxima_r2_example():
    best = max(per_modulus_maxima(2, 8), key=lambda row: row.ratio)
    assert best.ratio == 2.0
    assert (best.a, best.s) == (1, 8)


def test_per_modulus_maxima_r3_stays_small():
    assert max(row.ratio for row in per_modulus_maxima(3, 100)) <= 3.0


def test_prime_quadratic_residue_count():
    # cyclic group of even order: every QR has exactly two square roots
    for p in (5, 13, 97, 241):
        for a in range(1, p):
            c = count_solutions(2, a, p).count
            assert c in (0, 2)
            if c:
                assert c / 2 ** trial_factorize(p).omega == 1.0


def test_per_modulus_maxima_rows():
    rows = list(per_modulus_maxima(2, 8))
    assert rows[-1].s == 8 and rows[-1].a == 1
    assert rows[-1].count == 4 and rows[-1].ratio == 2.0
    assert len(rows) == 8


def test_nonunit_fallback_odd_prime_power():
    for a in (0, 3, 9, 81, 162):
        fast = count_solutions(3, a, 243).count
        assert fast == count_solutions_bruteforce(3, a, 243)


def _prime_powers_to(top):
    for p in (2, 3, 5, 7, 11):
        e = 1
        while p**e <= top:
            yield p, e
            e += 1


@pytest.mark.parametrize("r", range(2, 13))
def test_closed_form_matches_histogram(r):
    # every a, zero, units and every valuation j, at each p^e <= 3000
    for p, e in _prime_powers_to(3000):
        pe = p**e
        closed = [_count_prime_power(r, a, p, e) for a in range(pe)]
        assert closed == counts_vector(r, pe).tolist(), (r, pe)


def test_closed_form_at_huge_prime_powers():
    # no enumeration: 2^60 and 2^61 are answered at once
    assert count_solutions(2, 0, 2**60).count == 2**30  # d = 0 mod 2^30
    assert count_solutions(2, 4, 2**61).count == 8  # d = 2w, w^2 = 1 mod 2^59


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 8, 12, 2**40 + 1])
def test_maxima_sieve_matches_count_solutions(r, monkeypatch):
    # windows of 64 moduli: every prime power above 64 spans windows
    monkeypatch.setattr(residues, "_WINDOW", 64)
    rows = list(per_modulus_maxima(r, 3000))
    assert [row.s for row in rows] == list(range(1, 3001))
    for row in rows:
        rc = count_solutions(r, 1 % row.s, row.s)
        assert row == ModulusMaximum(row.s, rc.a, rc.count, rc.count / (rc.bound / 2)), (r, row)


def _omega_by_trial(s):
    """The number of distinct primes of s, by trial division by every p."""
    omega = 0
    for p in range(2, s + 1):
        if s % p == 0:
            omega += 1
            while s % p == 0:
                s //= p
    return omega


@pytest.mark.parametrize("r", [2, 3, 4, 6, 8, 2**40 + 1])
def test_maxima_sieve_matches_bruteforce(r):
    # exhaustive counts: no closed form is shared with the sieve
    for row in per_modulus_maxima(r, 400):
        count = count_solutions_bruteforce(r, 1 % row.s, row.s)
        omega = _omega_by_trial(row.s)
        assert (row.a, row.count) == (1 % row.s, count), (r, row)
        assert row.ratio == count / float(r**omega), (r, row)


@pytest.mark.parametrize("argv,digest", [
    ("--r 2 --s-max 5000", "e508526badae12ac9186e6c65930781d2ce1602b8ed36115ccd0ac780e2fdca8"),
    ("--r 3 --s-max 5000", "d26b598ef991d1b45d01b78b84f15ef54f9d2e32a532a808f95a44aefd831125"),
    ("--r 4 --s-max 5000", "4be245fd4a79609222b70b2db7f44050f1eb080bc5e1fd5a003cb7d660e2b58a"),
    ("--r 3 --s-max 1e5", "355e2b677494088ec23ec5a5b4b941c829ded0b9b186b7f8d93246bcf2563cdc"),
])
def test_residues_golden_stdout(argv, digest, capsys):
    # the bytes of the trial-division implementation the sieve replaced
    assert main(["residues", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_maxima_ceiling():
    with pytest.raises(ResourceLimitError, match="2\\*\\*32"):
        next(per_modulus_maxima(3, 2**32))
    # the largest s_max taken: the first row comes at once
    assert next(per_modulus_maxima(3, 2**32 - 1)) == ModulusMaximum(1, 0, 1, 1.0)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_maxima_recount_every_rise_and_every_997th(r, monkeypatch):
    # the rows where the running maximum ratio rises, and every s = 0 mod 997
    calls = []

    def recount(r, a, s):
        calls.append(s)
        return count_solutions(r, a, s)

    monkeypatch.setattr(residues, "count_solutions", recount)
    rows = list(per_modulus_maxima(r, 5000))
    rises, best = [], -math.inf
    for row in rows:
        if row.ratio > best:
            rises.append(row.s)
            best = row.ratio
    assert calls == sorted(set(rises) | set(range(997, 5001, 997)))
