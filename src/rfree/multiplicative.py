"""Euler products and generalized divisor functions.

``f_value`` evaluates the density constant

    f_r(k) = prod over primes p not dividing k of (1 - p^{-r})
           = zeta(r)^{-1} * prod over p | k of (1 - p^{-r})^{-1},

which depends only on the radical of k.  ``tau_table`` sieves tau_r(n),
the number of ordered r-tuples of positive integers with product n, in
the prime-power pass ``factor_sieve`` also runs, through tau_r(p^e) =
C(e + r - 1, r - 1); ``tau_value`` applies the formula to one n.  Each
helper that needs the primes of its argument factors it by the memoised
``trial_factorize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .sieve import _check_table_size, _prime_powers, factor_sieve, small_primes, trial_factorize

_ZETA_TARGET = 1e-13
_FLOAT_ULP = 2.3e-16
_ZETA_PIECE = 1 << 17  # float64 terms per np.sum in zeta: 1 MiB


def zeta(r: int) -> float:
    """Riemann zeta at an integer r >= 2, to relative error 1e-13.

    Computed as the finite sum over n <= M plus the integral tail
    correction M^(1-r) / (r-1), with M chosen so the residual bound M^(-r)
    meets the target.
    """
    if r < 2:
        raise ValueError(f"r must be >= 2 (series diverges at r=1), got {r}")
    return _zeta_cached(int(r), _ZETA_TARGET)


@lru_cache(maxsize=128)
def _zeta_cached(r: int, target: float) -> float:
    m = max(10, math.ceil(target ** (-1.0 / r)))
    while float(m) ** (-r) > target:
        m *= 2
    total = 0.0
    # sum ascending chunks, each reduced small-to-large for accuracy
    chunk = 1 << 20
    for lo in range(1, m + 1, chunk):
        hi = min(lo + chunk - 1, m)
        total += _descending_power_sum(hi, hi - lo + 1, r)
    return total + float(m) ** (1 - r) / (r - 1)


def _descending_power_sum(hi: int, n: int, r: int) -> float:
    """Sum of j^(-r) over j = hi, hi - 1, ..., hi - n + 1, bit for bit as
    ``np.sum`` adds the array of those terms.

    ``np.sum`` (numpy's pairwise summation) adds an array of more than 128
    terms as the sum of its first n2 = n // 2, rounded down to a multiple
    of 8, terms plus the sum of the rest.  Taking the same split here until a piece has at most
    ``_ZETA_PIECE`` terms gives the same bits while only one piece is held.
    """
    if n <= _ZETA_PIECE:
        terms = np.arange(hi, hi - n, -1, dtype=np.float64)
        return float(np.sum(np.power(terms, -r, out=terms)))
    n2 = n // 2
    n2 -= n2 % 8
    return _descending_power_sum(hi, n2, r) + _descending_power_sum(hi - n2, n - n2, r)


@dataclass(frozen=True)
class FValue:
    """Value of f_r(k) with an explicit relative-error budget."""

    r: int
    k: int
    value: float
    rel_error: float


def f_value(r: int, k: int) -> FValue:
    """Evaluate f_r(k) from the primes of k.

    Only the distinct primes of k matter, so f_r(k) = f_r(rad(k)).
    """
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fact = trial_factorize(k)
    val = 1.0 / zeta(r)
    for p, _ in fact.factors:
        val /= 1.0 - float(p) ** (-r)
    rel = _ZETA_TARGET + (len(fact.factors) + 2) * _FLOAT_ULP
    return FValue(r=r, k=k, value=val, rel_error=rel)


@dataclass(frozen=True)
class TauTable:
    """tau_r(n) for all n <= limit."""

    r: int
    limit: int
    tau: np.ndarray

    def __post_init__(self):
        self.tau.setflags(write=False)


def tau_table(r: int, limit: int) -> TauTable:
    """Sieve tau_r over [1, limit] over prime powers.

    tau_r is multiplicative with tau_r(p^e) = C(e + r - 1, r - 1).  Over
    ``_prime_powers(limit)``, every multiple of p gets the factor r; every
    multiple of p^e, e >= 2, then trades tau_r(p^(e-1)) for tau_r(p^e) by
    an exact division before the multiplication.

    Values are held in 64-bit integers.  Every intermediate value is at
    most the final tau_r(n), and tau_r(n) = sum over d | n of tau_(r-1)(d)
    is at most tau(n) * M <= (2 sqrt(limit) + 1) * M, where M is the
    largest tau_(r-1) below limit.  OverflowError is raised up front
    unless that bound fits int64.  The table keeps the size rule of
    ``sieve._check_table_size``, checked first.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    _check_table_size(limit, 8)  # one int64 per n
    divisor_bound = 2 * math.isqrt(limit) + 1  # tau_2(n) <= 2*sqrt(n)
    if r > 1 and _tau_max(r - 1, limit) > (2**63 - 1) // divisor_bound:
        raise OverflowError(f"tau_{r} would overflow 64-bit integers below {limit}")
    tau = np.ones(limit + 1, dtype=np.int64)
    tau[0] = 0
    for _, e, at in _prime_powers(limit):
        if e >= 2:
            tau[at] //= math.comb(e + r - 2, r - 1)
        tau[at] *= math.comb(e + r - 1, r - 1)
    return TauTable(r=r, limit=limit, tau=tau)


def _tau_max(r: int, limit: int) -> int:
    """max tau_r(n) over n <= limit, exactly.

    Moving the exponents of n, in decreasing order, onto the smallest
    primes keeps tau_r(n) and does not increase n, so the maximum is
    attained at some n = 2^e1 * 3^e2 * 5^e3 * ... with e1 >= e2 >= ....
    """
    primes = small_primes(100).tolist()  # their product exceeds 2**64
    best = 1
    stack = [(0, 1, 1, limit.bit_length())]  # prime index, n, tau_r(n), exponent cap
    while stack:
        i, n, value, cap = stack.pop()
        best = max(best, value)
        p = primes[i]
        for e in range(1, cap + 1):
            n *= p
            if n > limit:
                break
            stack.append((i + 1, n, value * math.comb(e + r - 1, r - 1), e))
    return best


def tau_value(r: int, n: int) -> int:
    """tau_r(n) from the multiplicative formula, in exact integer arithmetic."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    out = 1
    for _, e in trial_factorize(n).factors:
        out *= math.comb(e + r - 1, r - 1)
    return out


class TauSumRow(NamedTuple):
    x: int
    total: int
    ratio: float


def tau_partial_sum_check(r: int, xs: Sequence[int]) -> list[TauSumRow]:
    """Partial sums of tau_r with their x * (log x)^(r-1) normalization.

    The returned ratio stays bounded and slowly varying in x; acceptance
    checks pin that down numerically.
    """
    xs = [int(x) for x in xs]
    if not xs:
        raise ValueError("xs must be nonempty")
    for x in xs:
        if x < 3:
            raise ValueError(f"each x must be >= 3, got {x}")
    table = tau_table(r, max(xs))
    rows = []
    for x in xs:
        total = int(table.tau[1 : x + 1].sum(dtype=np.int64))
        if total < 0:
            raise OverflowError("tau partial sum overflowed int64")
        rows.append(TauSumRow(x, total, total / (x * math.log(x) ** (r - 1))))
    return rows


def omega_vs_tau_check(r: int, limit: int) -> bool:
    """True iff r^omega(k) <= tau_r(k) for every k <= limit."""
    om = factor_sieve(limit).omega[1:].astype(np.int64)  # refuses limit >= 2**32
    taus = tau_table(r, limit).tau[1:]
    lhs = np.power(r, om)
    return bool(np.all(lhs <= taus))
