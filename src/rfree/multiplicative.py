"""Euler products and generalized divisor functions.

``f_value`` evaluates the density constant

    f_r(k) = prod over primes p not dividing k of (1 - p^{-r})
           = zeta(r)^{-1} * prod over p | k of (1 - p^{-r})^{-1},

which depends only on the radical of k.  tau_r(n), the number of ordered
r-tuples of positive integers with product n, is needed only through its
partial sums, which ``tau_partial_sum_check`` forms by the Dirichlet
hyperbola over the floor values x // m in exact integers (``_tau_sum``),
and through single values, which ``tau_value`` takes from
tau_r(p^e) = C(e + r - 1, r - 1).  Each helper that needs the primes of
its argument factors it by the memoised ``trial_factorize``.

``_main_term``, from the factorization and f-value of k, is the one main
term: ``progressions.main_term`` and the bv-sum sweep both call it.

``zeta`` reads pinned bits from one table, so this module needs only the
standard library, and ``rfree f`` and ``rfree tau-sum`` start light at any r.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import floordiv, index, mul
from typing import NamedTuple, Sequence

from .arith import _LIMIT_CEILING, Factorization, trial_factorize
from .errors import ResourceLimitError

# the relative error budget of each zeta value, which FValue.rel_error carries
_ZETA_TARGET = 1e-13
_FLOAT_ULP = 2.3e-16
# the steps of the levels j < r, (r - 2) * x^(3/4) summed over the xs, that
# tau_partial_sum_check admits: r = 4 at any x < 2**32.  A step took about
# 0.4-0.5 us at x = 1e8 (2-core VM), so the budget is about 15 s of work
_TAU_STEP_BUDGET = 2 * 2**24
# zeta(r) for r = 2 ... 53: the bits every main term has used, those of the
# sum over n <= M of n^(-r) plus the tail M^(1-r) / (r - 1), M^(-r) <=
# _ZETA_TARGET.  They are not correctly rounded (4.9e-14 relative off at
# r = 7), so a fresh sum would move printed main terms.  From r = 54 on,
# zeta(r) - 1 < 2^-53 and zeta(r) rounds to 1.0
_ZETA = tuple(map(float.fromhex, (
    "0x1.a51a6625308b4p+0",  # r = 2
    "0x1.33ba004f00703p+0",  # 3
    "0x1.151322ac7d929p+0",  # 4
    "0x1.097418eca7dabp+0",  # 5
    "0x1.0470984c09322p+0",  # 6
    "0x1.02232da14d015p+0",  # 7
    "0x1.010b36af86452p+0",  # 8
    "0x1.00839f3d8177fp+0",  # 9
    "0x1.00412e33a5c83p+0",  # 10
    "0x1.0020631be4925p+0",  # 11
    "0x1.001020a5b2d25p+0",  # 12
    "0x1.00080ac9d08f1p+0",  # 13
    "0x1.00040392bcae5p+0",  # 14
    "0x1.0002012f797e4p+0",  # 15
    "0x1.00010064cdeb2p+0",  # 16
    "0x1.00008021839b4p+0",  # 17
    "0x1.0000400b2654ep+0",  # 18
    "0x1.00002003b611fp+0",  # 19
    "0x1.000010013c594p+0",  # 20
    "0x1.00000800695d6p+0",  # 21
    "0x1.000004002319bp+0",  # 22
    "0x1.000002000bb1ep+0",  # 23
    "0x1.0000010003e5ap+0",  # 24
    "0x1.00000080014c7p+0",  # 25
    "0x1.00000040006edp+0",  # 26
    "0x1.000000200024fp+0",  # 27
    "0x1.00000010000c5p+0",  # 28
    "0x1.0000000800042p+0",  # 29
    "0x1.0000000400016p+0",  # 30
    "0x1.0000000200007p+0",  # 31
    "0x1.0000000100002p+0",  # 32
    "0x1.0000000080001p+0",  # 33
    "0x1.0000000040000p+0",  # 34
    "0x1.0000000020000p+0",  # 35
    "0x1.0000000010000p+0",  # 36
    "0x1.0000000008000p+0",  # 37
    "0x1.0000000004000p+0",  # 38
    "0x1.0000000002000p+0",  # 39
    "0x1.0000000001000p+0",  # 40
    "0x1.0000000000800p+0",  # 41
    "0x1.0000000000400p+0",  # 42
    "0x1.0000000000200p+0",  # 43
    "0x1.0000000000100p+0",  # 44
    "0x1.0000000000080p+0",  # 45
    "0x1.0000000000040p+0",  # 46
    "0x1.0000000000020p+0",  # 47
    "0x1.0000000000010p+0",  # 48
    "0x1.0000000000008p+0",  # 49
    "0x1.0000000000004p+0",  # 50
    "0x1.0000000000002p+0",  # 51
    "0x1.0000000000001p+0",  # 52
    "0x1.0000000000001p+0",  # 53
)))


def zeta(r: int) -> float:
    """Riemann zeta at an integer r >= 2, to relative error ``_ZETA_TARGET``,
    read from the pinned ``_ZETA``.  A non-integer r raises TypeError."""
    r = index(r)
    if r < 2:
        raise ValueError(f"r must be >= 2 (series diverges at r=1), got {r}")
    return _ZETA[r - 2] if r < 2 + len(_ZETA) else 1.0


class FValue(NamedTuple):
    """Value of f_r(k) with an explicit relative-error budget."""

    r: int
    k: int
    value: float
    rel_error: float


def f_value(r: int, k: int) -> FValue:
    """Evaluate f_r(k) from the primes of k.

    Only the distinct primes of k matter, so f_r(k) = f_r(rad(k)).  A
    non-integer r or k raises TypeError.
    """
    r, k = index(r), index(k)
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


def _main_term(x: int, r: int, fact: Factorization, fval: FValue, l: int) -> float:
    """``progressions.main_term`` of (x, r, fact.n, l), given the
    factorization and the f-value of k."""
    num = den = 1
    for p, e in fact.factors:
        if e >= r and l % p**r == 0:
            raise ValueError(
                f"gcd(l, k) = {math.gcd(l, fact.n)} is not {r}-free; "
                "the main term is undefined"
            )
        if l % p**e == 0:
            num *= p ** (r - e) - 1
            den *= p ** (r - e)
    return (x / fact.n) * (num / den) * fval.value


def tau_value(r: int, n: int) -> int:
    """tau_r(n) from the multiplicative formula, in exact integer arithmetic.
    A non-integer r or n raises TypeError."""
    r = index(r)  # and n in trial_factorize
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


def _tau_sum(r: int, x: int) -> int:
    """The sum of tau_r(n) over 1 <= n <= x, exactly, by the Dirichlet
    hyperbola, in O(r * x^(3/4)) steps and O(sqrt(x)) memory.

    With D_j(v) the sum of tau_j over n <= v and u = isqrt(v),

        D_1(v) = v,
        D_j(v) = sum over a <= u of tau_(j-1)(a) * (v // a)
               + sum over b <= u of D_(j-1)(v // b) - D_(j-1)(u) * u.

    Every v that the recursion reaches from x is a floor value x // m.
    Each level j keeps D_j(x // m) for the m with x // m > isqrt(x) (the
    list ``big``), and tau_j(a) and D_j(a) for every a <= isqrt(x) (the
    lists ``tau`` and ``small``, the next tau by one divisor-sum pass);
    the last level needs only m = 1.
    """
    root = math.isqrt(x)
    top = x // (root + 1)  # x // m > root exactly for m <= top
    tau = [0] + [1] * root  # tau_1(a), a <= root
    small = list(range(root + 1))  # D_1(a), a <= root
    big = [0] + [x // m for m in range(1, top + 1)]  # D_1(x // m), m <= top
    for j in range(2, r + 1):
        nxt = [0]
        for m in range(1, (top if j < r else 1) + 1):
            v = x // m
            u = math.isqrt(v)
            total = sum(map(mul, tau[1 : u + 1], map(floordiv, repeat(v), range(1, u + 1))))
            # D_(j-1)(x // (m * b)): held in ``big`` up to m * b = top, in
            # ``small`` past it
            held = min(u, top // m)
            total += sum(big[m : m * held + 1 : m])
            total += sum(map(small.__getitem__,
                             map(floordiv, repeat(x), range(m * (held + 1), m * u + 1, m))))
            nxt.append(total - small[u] * u)
        big = nxt
        if j < r:
            nxt = [0] * (root + 1)
            for d in range(1, root + 1):
                t = tau[d]
                for n in range(d, root + 1, d):
                    nxt[n] += t
            tau = nxt
            small = list(accumulate(tau))
    return big[1]


def tau_partial_sum_check(r: int, xs: Sequence[int]) -> list[TauSumRow]:
    """Partial sums of tau_r with their x * (log x)^(r-1) normalization.

    The returned ratio stays bounded and slowly varying in x; acceptance
    checks pin that down numerically.  Each total is ``_tau_sum(r, x)``,
    an exact integer.  Raises, before any sum is formed, TypeError unless
    r and every x are integers (``operator.index``), ValueError unless
    xs is nonempty, every x >= 3 and r >= 1, ResourceLimitError unless
    every x < 2**32, OverflowError if a normalization is not a finite
    float, and ResourceLimitError if the levels below r would take more
    than ``_TAU_STEP_BUDGET`` steps.
    """
    r, xs = index(r), [index(x) for x in xs]
    if not xs:
        raise ValueError("xs must be nonempty")
    for x in xs:
        if x < 3:
            raise ValueError(f"each x must be >= 3, got {x}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    # below 2**32 for its cost: each level j < r of the hyperbola takes
    # O(x^(3/4)) steps, and at x = 2**32 - 1 the sum took 0.1 s at r = 2,
    # 10-12 s at r = 3 and 18 s at r = 4 (2-core VM)
    if max(xs) >= _LIMIT_CEILING:
        raise ResourceLimitError(
            f"x={max(xs)} is not below 2**32, the ceiling of every x; at "
            "x = 2**32 - 1 the sum already takes about 10 s at r = 3 and 8 s "
            "more for each further r"
        )
    try:
        norms = [x * math.log(x) ** (r - 1) for x in xs]
    except OverflowError:  # raised by the power; the product overflows to inf
        norms = [math.inf]
    if not all(map(math.isfinite, norms)):
        raise OverflowError(f"x * (log x)^{r - 1} overflows a float for some x of {xs}")
    # floor(x^(3/4)) exactly, as the floor of the 4th root of x^3
    steps = max(r - 2, 0) * sum(math.isqrt(math.isqrt(x**3)) for x in xs)
    if steps > _TAU_STEP_BUDGET:
        raise ResourceLimitError(
            f"the sums at r={r} would take about {steps:.3g} steps, (r - 2) * x^(3/4) "
            f"summed over the xs, more than the budget of {_TAU_STEP_BUDGET} (r = 4 "
            "at x just below 2**32, about 15 s)"
        )
    rows = []
    for x, norm in zip(xs, norms):
        total = _tau_sum(r, x)
        rows.append(TauSumRow(x, total, total / norm))
    return rows
