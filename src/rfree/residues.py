"""Counting solutions of d^r = a (mod s).

The count is multiplicative over the prime-power factors of s (CRT), and
each prime power p^e has one closed form.  Write a = p^j * u with u a unit:

* a = 0 (mod p^e): d^r = 0 exactly when v_p(d) >= ceil(e/r), so the count
  is p^(e - ceil(e/r)).
* 0 < j < e: there are no solutions unless r | j.  Then d = p^(j/r) * w
  with w a unit mod p^(e - j/r) and w^r = u (mod p^(e - j)), so the count
  is the unit count of u mod p^(e - j) times p^(j - j/r).
* j = 0: the unit group is cyclic of order phi(p^e) for odd p, and
  {+-1} x cyclic of order 2^(e-2) for 2^e with e >= 3.

For units the count never exceeds 2 * r^omega(s), and a = 1 attains the
maximum, which ``per_modulus_maxima`` reads off for each modulus.
``counts_vector`` (exhaustive histograms per prime power) and
``count_solutions_bruteforce`` are the oracles.

Import rule: this module imports no numpy at the top.  The counts are
integer arithmetic on ``arith.trial_factorize``, so ``rfree residues``
starts without numpy; only the histogram oracle, which the tests call,
imports it in its own body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .arith import trial_factorize


@dataclass(frozen=True)
class ResidueCount:
    """Number of d in [0, s) with d^r = a (mod s), and the unit bound."""

    r: int
    a: int
    s: int
    count: int
    bound: float


def count_solutions_bruteforce(r: int, a: int, s: int) -> int:
    """Exhaustive count over d in [0, s); the oracle path."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if not 0 <= a < s:
        raise ValueError(f"need 0 <= a < s, got a={a}, s={s}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return sum(1 for d in range(s) if pow(d, r, s) == a)


@lru_cache(maxsize=32)
def _prime_power_histogram(r: int, pe: int):
    """counts[a] = #{ d in [0, pe) : d^r = a (mod pe) }, vectorised."""
    import numpy as np

    base = np.arange(pe, dtype=np.int64)
    result = np.ones(pe, dtype=np.int64)
    exp = r
    while exp:
        if exp & 1:
            result = result * base % pe
        base = base * base % pe
        exp >>= 1
    hist = np.bincount(result, minlength=pe).astype(np.int64)
    hist.setflags(write=False)
    return hist


def _count_prime_power(r: int, a: int, p: int, e: int) -> int:
    """#{d in [0, p^e) : d^r = a (mod p^e)}, in closed form."""
    pe = p**e
    a %= pe
    if a == 0:
        return p ** (e + (-e // r))  # e - ceil(e/r)
    j = 0
    while a % p == 0:
        a //= p
        j += 1
    if j % r:
        return 0
    # d = p^(j/r) * w, w a unit counted mod p^(e - j/r) with w^r = a mod p^(e - j)
    return _count_units(r, a, p, e - j) * p ** (j - j // r)


def _count_units(r: int, a: int, p: int, e: int) -> int:
    """#{d in [0, p^e) : d^r = a (mod p^e)} for a unit a."""
    pe = p**e
    if p != 2:
        # cyclic unit group of order n
        n = pe // p * (p - 1)
        gd = math.gcd(r, n)
        return gd if pow(a, n // gd, pe) == 1 else 0
    # 2^e: units are <-1> x <5>, orders 2 and 2^(e-2) for e >= 3; the
    # formulas also hold at e = 2 (m = 0) and e = 1 (m = -1, count 1)
    if r % 2 == 1:
        return 1
    two_adic = (r & -r).bit_length() - 1
    m = min(two_adic, e - 2)
    if a % 4 == 1 and pow(a, 2 ** (e - 2 - m), pe) == 1:
        return 2 ** (m + 1)
    return 0


def count_solutions(r: int, a: int, s: int) -> ResidueCount:
    """CRT-multiplicative count of d^r = a (mod s); equals the oracles."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if not 0 <= a < s:
        raise ValueError(f"need 0 <= a < s, got a={a}, s={s}")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    fact = trial_factorize(s)
    count = 1
    for p, e in fact.factors:
        count *= _count_prime_power(r, a, p, e)
        if count == 0:
            break
    return ResidueCount(r=r, a=a, s=s, count=count, bound=2.0 * r**fact.omega)


def counts_vector(r: int, s: int):
    """counts[a] for every a in [0, s) at once, from exhaustive histograms,
    as an int64 numpy array."""
    import numpy as np

    out = np.ones(s, dtype=np.int64)
    idx = np.arange(s, dtype=np.int64)
    for p, e in trial_factorize(s).factors:
        pe = p**e
        out *= _prime_power_histogram(r, pe)[idx % pe]
    return out


class ModulusMaximum(NamedTuple):
    s: int
    a: int
    count: int
    ratio: float


def per_modulus_maxima(r: int, s_max: int) -> Iterator[ModulusMaximum]:
    """For each s <= s_max, the unit residue a maximizing count / r^omega(s).

    For a unit a the solutions of d^r = a (mod s) are a coset of the
    kernel of d -> d^r on the units, or there are none.  So the count at
    a = 1 is the maximum, and 1 % s is the smallest unit attaining it.
    """
    if s_max < 2:
        raise ValueError(f"s_max must be >= 2, got {s_max}")
    for s in range(1, s_max + 1):
        rc = count_solutions(r, 1 % s, s)
        # rc.bound / 2 = r^omega(s), exactly as a float
        yield ModulusMaximum(s=s, a=rc.a, count=rc.count, ratio=rc.count / (rc.bound / 2))

