"""Exact counts, main terms, and error terms for r-free numbers in
arithmetic progressions, plus the small-d / large-d split of the count.

For a modulus k and residue l, write g = gcd(l, k) (with gcd(0, k) = k),
k = g*s, l = g*t.  The count of interest is

    R(x; k, l) = #{ n <= x : n = l (mod k), n r-free },

defined whenever g itself is r-free; if g is not r-free every member of
the progression is divisible by an r-th power and R = 0.  The main term is

    (x / k) * prod_{p^e || k, p^e | l} (1 - p^(e - r)) * f_r(k),

which is (x / k) * (phi(k) / (g * phi(s))) * f_r(k) when r = 2, and the
error term E(x; k, l) is the exact count minus that main term.

``decompose`` rewrites R as a double sum over d (the Mobius variable
detecting r-th-power divisibility of the cofactor n/g) and u = n/(g d^r),
split at a cut z:

    R = sum_{d <= z} mu(d) * N(d)  +  sum_{z < d <= (x/g)^(1/r)} mu(d) * N(d)

with d restricted to gcd(d, k) = 1, and N(d) counting u <= x/(g d^r) in
the residue class t * (d^r)^(-1) mod s whose p-adic valuation satisfies
v_p(u) <= r - 1 - v_p(g) for every prime p | g with p not dividing s.
That valuation cap is what makes the identity exact for every r: a prime
p | g may still divide the cofactor as long as the combined exponent
stays below r.  When r = 2 the cap degenerates to gcd(u, g) = 1, the
familiar squarefree form.  The split identity

    small_sum + large_sum = R,   for every z >= 1,

holds with no tolerance, and ``decompose_many``, which forms both sides,
checks it for every split; R itself comes from ``sieve._class_counts``,
the independent strided count of the flags, one window at a time.

Each public function uses only the ints its rules return: x and r from
``sieve._check_count_range`` (or ``operator.index``), and k and l from
``_check_class``, which also returns g, s and t.  So a float raises
TypeError before any work, and a numpy integer counts as the int it equals.

``main_term`` checks its arguments and evaluates
``multiplicative._main_term``, which the bv-sum sweep also calls.
``decompose_many`` splits many (k, l, z) at one (x, r), and ``decompose``
is its one-trial call.  The trials are grouped by g, and each group's
d-terms (d, mu(d), d^r, (x/g) // d^r) of the squarefree d <= (x/g)^(1/r)
are built once by ``sieve._d_terms``, which the bv-sum sweep shares.  Each
distinct (k, l) of a group is one row, a few passes over 1-D arrays of its
d.  The weights mu(d), zeroed off the d not coprime to k, and the valuation
caps, counted by inclusion-exclusion, are formed once per (g, k), and
(d^r)^(-1) mod s once per s.  Every cut z of a row is read off one
cumulative sum.  The counts of every distinct (k, l) come from one
``_class_counts`` pass.
"""

from __future__ import annotations

import math
from operator import index
from typing import NamedTuple, Sequence

import numpy as np

from .arith import _R_CEILING, is_r_free, trial_factorize
from .errors import SelfCheckError
from .multiplicative import _FLOAT_ULP, _main_term, f_value
from .sieve import _check_count_range, _class_counts, _d_terms, _root_mu


class ProgressionReport(NamedTuple):
    """One progression: exact count, main term, and their difference."""

    x: int
    r: int
    k: int
    l: int
    g: int
    s: int
    t: int
    g_is_r_free: bool
    count: int
    main_term: float
    error_term: float
    main_rel_error: float


class DecompositionReport(NamedTuple):
    """Exact split of the progression count at a cut z.

    small_sum + large_sum = count always; small_main is the closed-form
    main term the small part tracks, and small_err feeds the bound probes.
    """

    x: int
    r: int
    k: int
    l: int
    z: float
    small_sum: int
    large_sum: int
    count: int
    small_main: float
    small_err: float


class LemmaBoundRatios(NamedTuple):
    small_residual: float
    large_ratio: float


def _check_class(k: int, l: int) -> tuple[int, int, int, int, int]:
    """The one rule of a class: integers k >= 1 and 0 <= l < k.

    Returns (k, l, g, s, t) as ints, with g = gcd(l, k), k = g s and
    l = g t; gcd(0, k) = k, so the zero class has g = k.  Raises TypeError
    unless k and l are integers (``operator.index``), and ValueError
    unless they keep the rule.
    """
    k, l = index(k), index(l)
    if k < 1 or not 0 <= l < k:
        raise ValueError(f"bad progression k={k}, l={l}: need k >= 1 and 0 <= l < k")
    g = math.gcd(l, k)
    return k, l, g, k // g, l // g


def count_r_free_in_progression(x: int, r: int, k: int, l: int) -> int:
    """Exact R(x; k, l) by strided counts of the sieved r-free flags."""
    x, r = _check_count_range(x, r)
    k, l, *_ = _check_class(k, l)
    return _class_counts(r, [(x, k, l)])[0]


def count_r_free_bruteforce(x: int, r: int, k: int, l: int) -> int:
    """Same count by per-n trial division; the sieve-free oracle."""
    x = index(x)  # and r in is_r_free
    k, l, *_ = _check_class(k, l)
    start = l if l >= 1 else k
    return sum(1 for n in range(start, x + 1, k) if is_r_free(n, r))


def main_term(x: int, r: int, k: int, l: int) -> float:
    """Main term (x/k) * prod_p (1 - p^(e - r)) * f_r(k).

    The product runs over the prime powers p^e exactly dividing k with
    p^e | l.  On such a class n / p^e is equidistributed mod p, so p^r
    fails to divide n with density 1 - p^(e - r); every other prime of k
    divides each n to the fixed power v_p(l) < r and contributes 1.  The
    product is one exact ratio of integers, phi(k) / (g phi(s)) at r = 2.

    Defined only when g = gcd(l, k) is r-free; otherwise the progression
    carries no r-free numbers at all and the caller should use the
    all-zero convention.  Raises TypeError unless x, r, k and l are
    integers, and ValueError unless x >= 0, r < 64 and 0 <= l < k.
    """
    x, r = index(x), index(r)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if r >= _R_CEILING:
        raise ValueError(f"r must be below 64, got {r}")
    k, l, *_ = _check_class(k, l)
    return _main_term(x, r, trial_factorize(k), f_value(r, k), l)


def error_term(x: int, r: int, k: int, l: int) -> ProgressionReport:
    """Assemble the full report; error_term = count - main_term.

    A progression whose gcd is not r-free gets the all-zero convention
    with g_is_r_free = False (its exact count is genuinely zero).  Raises
    SelfCheckError as ``decompose_many`` does.
    """
    return _error_report(x, r, k, l)[0]


def _error_report(
    x: int, r: int, k: int, l: int, z: float = 1.0
) -> tuple[ProgressionReport, DecompositionReport | None]:
    """``error_term`` and, when gcd(l, k) is r-free, the ``decompose``
    split at z (None otherwise), whose count and main term the report
    takes: one sieve pass over [0, x] serves both.  Raises SelfCheckError
    as ``decompose_many`` does.
    """
    x, r = _check_count_range(x, r)
    k, l, g, s, t = _check_class(k, l)
    if not is_r_free(g, r):
        return ProgressionReport(
            x=x, r=r, k=k, l=l, g=g, s=s, t=t, g_is_r_free=False,
            count=0, main_term=0.0, error_term=0.0, main_rel_error=0.0,
        ), None
    split = decompose(x, r, k, l, z)
    count, main = split.count, split.small_main
    rel = f_value(r, k).rel_error + 5 * _FLOAT_ULP
    return ProgressionReport(
        x=x, r=r, k=k, l=l, g=g, s=s, t=t, g_is_r_free=True,
        count=count, main_term=main, error_term=count - main,
        main_rel_error=rel,
    ), split


def decompose(x: int, r: int, k: int, l: int, z: float) -> DecompositionReport:
    """Split R(x; k, l) into the d <= z and d > z double sums, exactly.

    Requires a finite z >= 1 and gcd(l, k) r-free.  Raises SelfCheckError
    unless the two partial sums recombine to the strided count exactly.
    """
    return decompose_many(x, r, [(k, l, z)])[0]


def decompose_many(
    x: int, r: int, trials: Sequence[tuple[int, int, float]]
) -> list[DecompositionReport]:
    """``decompose`` for every (k, l, z) of ``trials``, in order.

    Every trial is checked as ``decompose`` checks it before any sum is
    formed.  A repeated (k, l) is split once, all its cuts read off one
    cumulative sum, and the counts of every distinct (k, l) come from one
    ``_class_counts`` call, which sieves each window of flags once.  mu is
    sieved up to x^(1/r).  Raises SelfCheckError unless each small + large = R.
    """
    x, r = _check_count_range(x, r)
    checked = []  # (k, l, z) with k and l as ints
    main_terms = {}  # (k, l) -> small main term
    factored = {}  # k -> (factorization, f-value)
    for k, l, z in trials:
        if not (math.isfinite(z) and z >= 1):
            raise ValueError(f"z must be a finite number >= 1, got {z}")
        k, l, *_ = _check_class(k, l)
        checked.append((k, l, z))
        if (k, l) in main_terms:
            continue
        if k not in factored:
            factored[k] = (trial_factorize(k), f_value(r, k))
        main_terms[k, l] = _main_term(x, r, *factored[k], l)  # raises unless g is r-free
    if not checked:
        return []
    counts = dict(zip(main_terms, _class_counts(r, [(x, k, l) for k, l in main_terms])))
    mu = _root_mu(x, r)
    reports = []
    for (k, l, z), (small, large) in zip(checked, _split_sums(mu, x, r, checked, factored)):
        count, small_main = counts[k, l], main_terms[k, l]
        if small + large != count:
            raise SelfCheckError(f"the split of R({x}; {k}, {l}) at z={z!r} gives "
                                 f"{small} + {large}, not the count {count}")
        reports.append(
            DecompositionReport(
                x=x, r=r, k=k, l=l, z=float(z),
                small_sum=small, large_sum=large, count=count,
                small_main=small_main, small_err=small - small_main,
            )
        )
    return reports


def _split_sums(mu, x, r, trials, factored) -> list[tuple[int, int]]:
    """(small_sum, large_sum) of every checked (k, l, z); ``mu`` is the
    Mobius function indexed by n, up to at least x^(1/r)."""
    groups = {}  # g -> k -> l -> indices of its trials
    for i, (k, l, _) in enumerate(trials):
        groups.setdefault(math.gcd(l, k), {}).setdefault(k, {}).setdefault(l, []).append(i)
    sums = [(0, 0)] * len(trials)
    inverses = {}  # s -> (d^r)^(-1) mod s over the d of its first g, the longest range
    last = {k // g: g for g in sorted(groups) for k in groups[g]}  # s -> its last g
    for g in sorted(groups):  # the d of a larger g are a prefix of a smaller g's
        ds, mu_d, dr, u_limit = _d_terms(mu, x // g, r)
        if not ds.size:
            continue  # g > x: no u at all
        g_factors = trial_factorize(g).factors
        for k, rows in groups[g].items():
            s = k // g
            weights = mu_d.copy()
            for p, _ in factored[k][0].factors:
                if p <= ds[-1]:
                    weights[ds % p == 0] = 0  # d must be coprime to k
            # valuation caps: for p | g with p not dividing s, u may carry p up
            # to exponent r - 1 - v_p(g); equivalently p^(r - v_p(g)) must not
            # divide u.  N(d) is counted by inclusion-exclusion over products w
            # of caps, w = 1 first; on u <= x a w above x acts as x + 1 does.
            caps = [(1, 1)]
            for p, e in g_factors:
                if s % p:
                    caps += [(w * p ** (r - e), -sign) for w, sign in caps]
            if k <= x:
                if s not in inverses:
                    residues, which = np.unique(dr % s, return_inverse=True)
                    inverses[s] = np.array(
                        [pow(w, -1, s) if math.gcd(w, s) == 1 else 0 for w in residues.tolist()],
                        dtype=np.uint64,
                    )[which]
                dr_inv = inverses[s][: dr.size]
                classes = [(sign, pow(w, -1, s), u_limit // min(w, x + 1)) for w, sign in caps]
            for l, at in rows.items():
                t = l // g
                if k <= x:
                    # #{1 <= u <= L : u w d^r = t (mod s)} = (L + b) // s with
                    # b = -t (w d^r)^(-1) mod s; s <= x < 2^32, so each product
                    # of two residues fits in uint64
                    terms = [
                        (sign, (limit + ((s - t) * w_inv % s * dr_inv % s).view(np.int64)) // s)
                        for sign, w_inv, limit in classes
                    ]
                elif 0 < t <= x // g:
                    # here u w d^r <= x // g < s, so the congruence is the
                    # equality u = t / (w d^r)
                    quot, rem = np.divmod(t, dr)
                    terms = [(sign, (rem == 0) & (quot % min(w, x + 1) == 0)) for w, sign in caps]
                else:
                    continue  # no u at all
                n_d = terms[0][1]
                for sign, term in terms[1:]:
                    n_d = n_d + sign * term
                cum = (weights * n_d).cumsum()
                for i in at:
                    # d <= z exactly when d <= floor(z); d = 1 <= z, and every d <= x
                    small = int(cum[ds.searchsorted(min(math.floor(trials[i][2]), x), "right") - 1])
                    sums[i] = (small, int(cum[-1]) - small)
            if last[s] == g:
                inverses.pop(s, None)
    return sums


def lemma_bound_probe(rep: DecompositionReport) -> LemmaBoundRatios:
    """Normalize the two split sums of a decomposition by their closed-form
    bound shapes.

    small_residual divides |small_sum - main| by x z^(1-r) / k + 2^omega(g) z;
    large_ratio divides |large_sum| by r^omega(s) (x / (k z^(r-1)) + x / (g z^r)).
    Bounded ratios across sweeps are the empirical stand-in for the
    unspecified constants in the underlying estimates.
    """
    x, r, z = rep.x, rep.r, rep.z
    k, _, g, s, _ = _check_class(rep.k, rep.l)
    omega_g = trial_factorize(g).omega
    omega_s = trial_factorize(s).omega
    small_denom = x * z ** (1 - r) / k + 2**omega_g * z
    large_denom = r**omega_s * (x / (k * z ** (r - 1)) + x / (g * z**r))
    return LemmaBoundRatios(
        small_residual=abs(rep.small_err) / small_denom,
        large_ratio=abs(rep.large_sum) / large_denom,
    )
