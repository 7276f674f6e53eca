"""Integer arithmetic of single numbers, and the primes below a bound.

``trial_factorize`` is the one factoring routine: trial division by 2
and the odd p up to 2**16, which factors every n < 2**32 completely.  A
cofactor left above 2**32 has no prime factor up to 2**16; below 2**64 it
is tested by deterministic Miller-Rabin and a composite one is split by
Pollard-Brent rho, so a modulus with a large prime factor factors at
once.  Above 2**64, where those bases are not shown exact, trial division
goes on.  ``is_r_free`` and the Mobius values of ``mu_r_direct`` read
their answers off its factorization.

``mu_r_direct`` recomputes the r-free indicator for a single n as the
divisor sum of the Mobius function over d with d^r | n.  It is
deliberately independent of the sieve and serves as the cross-check
oracle for the flags.

``primes_upto`` is the one prime sieve and ``_int_rth_root`` the one
exact floor(n^(1/r)); ``_LIMIT_CEILING`` and ``_R_CEILING`` bound x and r.

This module imports no numpy, so the commands that need only these
numbers (``rfree residues``) start without it.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import index
from typing import NamedTuple

_TRIAL_BOUND = 1 << 16  # trial division runs over every p <= 2**16
# every x, table limit and s_max lies below this, _TRIAL_BOUND**2, where the
# int64 Mobius sums of harness._count_classes and progressions._split_sums,
# and the uint64 products of two residues mod s <= x in the latter, are exact
_LIMIT_CEILING = 2**32
# every r lies below this: an option admits only integers below 2**63, so a
# larger r changes no flag, and p**r would only cost time
_R_CEILING = 64
# Miller-Rabin with these bases is exact for every n < 2**64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 1 << 64
_RHO_BATCH = 128  # rho steps multiplied together per gcd


class _FactorizationFields(NamedTuple):
    n: int
    factors: tuple[tuple[int, int], ...]


class Factorization(_FactorizationFields):
    """Prime factorization of n as ordered (prime, exponent) pairs."""

    __slots__ = ()

    def __new__(cls, n: int, factors: tuple[tuple[int, int], ...]):
        prod = 1
        for p, e in factors:
            prod *= p**e
        if prod != n:
            raise ValueError(f"factors do not multiply to {n}")
        return super().__new__(cls, n, factors)

    @property
    def omega(self) -> int:
        return len(self.factors)


@lru_cache(maxsize=1024, typed=True)
def trial_factorize(n: int) -> Factorization:
    """Factor n: trial division up to 2**16, then Miller-Rabin and
    Pollard-Brent rho on a cofactor below 2**64.

    Memoised: a split factors the same small moduli and gcds many times,
    and a :class:`Factorization` is immutable, so it is safe to share.
    n goes through ``operator.index``, so a float raises TypeError, and
    the cache is typed, so 12.0 never finds the entry of 12.
    """
    n = index(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if p > _TRIAL_BOUND and m < _MR_EXACT_BELOW:
            # m > 2**32 and has no prime factor up to 2**16
            out.extend(_large_factors(m))
            m = 1
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return Factorization(n, tuple(out))


def _large_factors(m: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of m < 2**64, ascending, for m with no
    prime factor up to 37."""
    primes = []
    stack = [m]
    while stack:
        q = stack.pop()
        if _is_prime(q):
            primes.append(q)
        else:
            d = _brent_factor(q)
            stack += [d, q // d]
    primes.sort()
    return [(q, len(list(run))) for q, run in itertools.groupby(primes)]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 37 and n < 2**64."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int) -> int:
    """A proper factor of the odd composite n, by Pollard-Brent rho on
    y -> y^2 + c, trying c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, q, g, span = 2, 1, 1, 1
        while g == 1:
            x = y  # the walk's position at the last power of two
            for _ in range(span):
                y = (y * y + c) % n
            done = 0
            while done < span and g == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, span - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                done += _RHO_BATCH
            span *= 2
        if g == n:  # the batch passed the factor: retrace it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g


def primes_upto(n: int) -> list[int]:
    """The primes p <= n, ascending, by a sieve of Eratosthenes on the odd
    numbers."""
    if n < 2:
        return []
    flags = bytearray(b"\1") * ((n + 1) // 2)  # flags[i]: is 2i + 1 prime
    flags[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(flags), p)))
    return [2, *itertools.compress(range(1, n + 1, 2), flags)]


def _int_rth_root(n: int, r: int) -> int:
    """floor(n^(1/r)) in exact integer arithmetic, for 0 <= n < 2**64 and
    r >= 1, where the float estimate is off by at most a few units."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n.bit_length() <= r:  # n < 2^r, so the root is 0 or 1
        return min(n, 1)
    x = int(round(n ** (1.0 / r)))
    while x**r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


@lru_cache(maxsize=65536)
def _mobius_trial(n: int) -> int:
    factors = trial_factorize(n).factors
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def is_r_free(n: int, r: int) -> bool:
    """True iff no prime r-th power divides n (trial division, no table)."""
    n, r = index(n), index(r)  # a float raises TypeError
    if n < 1 or r < 2:
        raise ValueError("need n >= 1 and r >= 2")
    return all(e < r for _, e in trial_factorize(n).factors)


def mu_r_direct(n: int, r: int) -> int:
    """r-free indicator of n as the literal Mobius sum over d with d^r | n.

    Enumerates every d with d^r <= n, adding mu(d) whenever d^r divides n.
    Always lands in {0, 1}; agrees with the sieve's flags and serves as
    their independent oracle.  A non-integer n or r raises TypeError.
    """
    n, r = index(n), index(r)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    total = 0
    d = dr = 1
    while dr <= n:
        if n % dr == 0:
            total += _mobius_trial(d)
        d += 1
        dr = d**r
    return total
