"""Euler products and generalized divisor functions.

``f_value`` evaluates the density constant

    f_r(k) = prod over primes p not dividing k of (1 - p^{-r})
           = zeta(r)^{-1} * prod over p | k of (1 - p^{-r})^{-1},

which depends only on the radical of k.  tau_r(n), the number of ordered
r-tuples of positive integers with product n, is sieved through
tau_r(p^e) = C(e + r - 1, r - 1) by one kernel, ``_tau_windows(r, x)``,
which yields tau_r over [0, x] one scratch window at a time in
O(window + sqrt(x)) memory.  ``tau_partial_sum_check`` sums its windows
and ``tau_table`` copies them into a table; ``tau_value`` applies the
formula to one n.  Each helper that needs the primes of its argument
factors it by the memoised ``trial_factorize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .arith import trial_factorize
from .errors import ResourceLimitError
from .sieve import _LIMIT_CEILING, _check_table_size, factor_sieve, small_primes

_ZETA_TARGET = 1e-13
_FLOAT_ULP = 2.3e-16
_ZETA_PIECE = 1 << 17  # float64 terms per np.sum in zeta: 1 MiB
# n per window of the tau_r kernel: an int64 tau_r and a uint32 smooth part
# each, 768 KiB of scratch; its square exceeds every x below 2**32
_TAU_WINDOW = 1 << 16


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
    """tau_r(n) for every n in [1, limit], copied from ``_tau_windows``.

    Values are held in 64-bit integers, exact under ``_check_tau_range``,
    which raises OverflowError up front otherwise.  The table keeps the
    size rule of ``sieve._check_table_size``, checked first.
    """
    _check_table_size(limit, 8)  # one int64 per n
    _check_tau_range(r, limit)
    tau = np.empty(limit + 1, dtype=np.int64)
    for lo, window in _tau_windows(r, limit):
        tau[lo : lo + window.size] = window
    return TauTable(r=r, limit=limit, tau=tau)


def _check_tau_range(r: int, x: int) -> None:
    """The rule of every tau_r sieve over [0, x]: r >= 1 (ValueError),
    x < 2**32 (ResourceLimitError) and tau_r exact in int64 (OverflowError),
    all checked before anything is allocated.

    Every intermediate value of ``_tau_windows`` is at most the final
    tau_r(n), and tau_r(n) = sum over d | n of tau_(r-1)(d) is at most
    tau(n) * M <= (2 sqrt(x) + 1) * M, where M is the largest tau_(r-1)
    below x; the check asks that bound to fit int64.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if x >= _LIMIT_CEILING:
        raise ResourceLimitError(
            f"x={x} is not below 2**32, the range of the uint32 smooth parts "
            "and the window of the tau_r sieve"
        )
    divisor_bound = 2 * math.isqrt(x) + 1  # tau_2(n) <= 2*sqrt(n)
    if r > 1 and _tau_max(r - 1, x) > (2**63 - 1) // divisor_bound:
        raise OverflowError(f"tau_{r} would overflow 64-bit integers below {x}")


def _tau_windows(r: int, x: int):
    """Yield (lo, tau) over [0, x]: tau_r(n) of n = lo, lo + 1, ... as
    int64 (tau_r(0) = 0), one window of ``_TAU_WINDOW`` at a time, each in
    the one scratch buffer that the next step refills.  The one tau_r
    kernel; callers check ``_check_tau_range(r, x)`` first.

    tau_r is multiplicative with tau_r(p^e) = C(e + r - 1, r - 1).  For
    each prime p <= sqrt(x), ascending, and each p^e <= x, e ascending,
    every multiple of p^e trades tau_r(p^(e-1)) for tau_r(p^e) by an exact
    division and a multiplication, and its smooth part, the product of the
    prime powers found so far, takes the factor p.  A p^e below the window
    is applied by strides; one at least the window hits a window at most
    once, so the powers of each e are applied by one index array.  Where
    the smooth part is still below n, n has exactly one prime factor above
    sqrt(x), which brings the factor r.
    """
    w = _TAU_WINDOW
    # Two distinct primes with powers >= w divide no common n <= x < w * w,
    # so the hits of one exponent's index array are distinct, and plain
    # fancy indexing applies each factor exactly once.
    assert x < w * w, "x must lie below the square of the window"
    dense = []  # (p^e < w, p, C(e + r - 2, r - 1) or None at e = 1, C(e + r - 1, r - 1))
    sparse = {}  # e -> ([p^e >= w], [p])
    for p in small_primes(math.isqrt(x)).tolist():
        q, e = p, 1
        while q <= x:
            if q < w:
                div = math.comb(e + r - 2, r - 1)
                mul = math.comb(e + r - 1, r - 1)
                # numpy scalars of the arrays' dtypes make the strided updates faster
                dense.append((q, np.uint32(p), np.int64(div) if e > 1 else None, np.int64(mul)))
            else:
                qs, ps = sparse.setdefault(e, ([], []))
                qs.append(q)
                ps.append(p)
            q *= p
            e += 1
    sparse = [
        (np.array(qs, dtype=np.int64), np.array(ps, dtype=np.uint32),
         math.comb(e + r - 2, r - 1), math.comb(e + r - 1, r - 1))
        for e, (qs, ps) in sorted(sparse.items())
    ]
    tau_scratch = np.empty(min(w, x + 1), dtype=np.int64)
    smooth_scratch = np.empty_like(tau_scratch, dtype=np.uint32)
    offsets = np.arange(tau_scratch.size, dtype=np.uint32)
    for lo in range(0, x + 1, w):
        size = min(w, x + 1 - lo)
        tau, smooth = tau_scratch[:size], smooth_scratch[:size]  # n = lo + index
        tau.fill(1)
        smooth.fill(1)
        if lo == 0:
            tau[0] = smooth[0] = 0  # n = 0: every update keeps both 0
        for q, p, div, mul in dense:
            start = -lo % q
            at = tau[start::q]
            if div is not None:
                at //= div
            at *= mul
            smooth_at = smooth[start::q]
            smooth_at *= p
        for qs, ps, div, mul in sparse:
            hits = -lo % qs
            hit = hits < size
            at = hits[hit]
            tau[at] //= div
            tau[at] *= mul
            smooth[at] *= ps[hit]
        np.multiply(tau, r, out=tau, where=smooth < offsets[:size] + lo)
        yield lo, tau


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
    checks pin that down numerically.  One pass of ``_tau_windows`` over
    [0, max(xs)] serves every x, in O(window + sqrt(x)) memory.  Raises
    ValueError unless xs is nonempty and every x >= 3, and the errors of
    ``_check_tau_range`` before any window.
    """
    xs = [int(x) for x in xs]
    if not xs:
        raise ValueError("xs must be nonempty")
    for x in xs:
        if x < 3:
            raise ValueError(f"each x must be >= 3, got {x}")
    top = max(xs)
    _check_tau_range(r, top)
    # every tau_r(n) with n <= top is at most _tau_max(r, top) < 2**63, so
    # a sum of `chunk` of them is exact in int64
    chunk = (2**63 - 1) // _tau_max(r, top)

    def exact_sum(values):
        return sum(int(values[i : i + chunk].sum()) for i in range(0, values.size, chunk))

    pending = sorted(range(len(xs)), key=xs.__getitem__, reverse=True)
    totals = [0] * len(xs)
    below = 0  # the sum of tau_r over [1, lo)
    for lo, tau in _tau_windows(r, top):
        while pending and xs[pending[-1]] < lo + tau.size:
            i = pending.pop()
            totals[i] = below + exact_sum(tau[: xs[i] - lo + 1])
        below += exact_sum(tau)
    return [
        TauSumRow(x, total, total / (x * math.log(x) ** (r - 1)))
        for x, total in zip(xs, totals)
    ]


def omega_vs_tau_check(r: int, limit: int) -> bool:
    """True iff r^omega(k) <= tau_r(k) for every k <= limit."""
    om = factor_sieve(limit).omega[1:].astype(np.int64)  # refuses limit >= 2**32
    taus = tau_table(r, limit).tau[1:]
    lhs = np.power(r, om)
    return bool(np.all(lhs <= taus))
