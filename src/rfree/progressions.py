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

holds with no tolerance and is enforced by the acceptance suite; R itself
comes from the independent strided scan of the flag table.

The d-sum is one vectorised int64 computation over the squarefree
d <= (x/g)^(1/r) coprime to k, so a call costs about x^(1/r) array
elements times 2^(number of capped primes), reading only
``table.mu[1 : d_max + 1]``.  The valuation caps are counted by
inclusion-exclusion, exact at every size, so there is no scan crossover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .multiplicative import FValue, f_value
from .sieve import SieveTable, is_r_free, trial_factorize

@dataclass(frozen=True)
class ProgressionReport:
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


@dataclass(frozen=True)
class DecompositionReport:
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


def _split_progression(k: int, l: int) -> tuple[int, int, int]:
    g = math.gcd(l, k)  # gcd(0, k) = k, so the zero class has g = k
    return g, k // g, l // g


def count_r_free_in_progression(
    table: SieveTable, x: int, r: int, k: int, l: int
) -> int:
    """Exact R(x; k, l) by a strided scan of the r-free flag table."""
    if r not in table.mu_r:
        raise ValueError(f"table was not built with r={r}")
    if not 0 <= x <= table.limit:
        raise ValueError(f"x={x} outside sieve range [0, {table.limit}]")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= l < k:
        raise ValueError(f"need 0 <= l < k, got l={l}, k={k}")
    start = l if l >= 1 else k
    if start > x:
        return 0
    return int(table.mu_r[r][start : x + 1 : k].sum(dtype=np.int64))


def count_r_free_bruteforce(x: int, r: int, k: int, l: int) -> int:
    """Same count by per-n trial division; the table-free oracle."""
    start = l if l >= 1 else k
    return sum(1 for n in range(start, x + 1, k) if is_r_free(n, r))


def main_term(x: int, r: int, k: int, l: int, fval: FValue) -> float:
    """Main term (x/k) * prod_p (1 - p^(e - r)) * f_r(k).

    The product runs over the prime powers p^e exactly dividing k with
    p^e | l.  On such a class n / p^e is equidistributed mod p, so p^r
    fails to divide n with density 1 - p^(e - r); every other prime of k
    divides each n to the fixed power v_p(l) < r and contributes 1.  The
    product is one exact ratio of integers, phi(k) / (g phi(s)) at r = 2.

    Defined only when g = gcd(l, k) is r-free; otherwise the progression
    carries no r-free numbers at all and the caller should use the
    all-zero convention.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if k < 1 or not 0 <= l < k:
        raise ValueError(f"bad progression k={k}, l={l}")
    if fval.r != r or fval.k != k:
        raise ValueError("f-value does not match the requested (r, k)")
    num = den = 1
    for p, e in trial_factorize(k).factors:
        if e >= r and l % p**r == 0:
            raise ValueError(
                f"gcd(l, k) = {math.gcd(l, k)} is not {r}-free; "
                "the main term is undefined"
            )
        if l % p**e == 0:
            num *= p ** (r - e) - 1
            den *= p ** (r - e)
    return (x / k) * (num / den) * fval.value


def error_term(table: SieveTable, x: int, r: int, k: int, l: int) -> ProgressionReport:
    """Assemble the full report; error_term = count - main_term.

    A progression whose gcd is not r-free gets the all-zero convention
    with g_is_r_free = False (its exact count is genuinely zero).
    """
    if r not in table.mu_r:
        raise ValueError(f"table was not built with r={r}")
    if not 0 <= x <= table.limit:
        raise ValueError(f"x={x} outside sieve range [0, {table.limit}]")
    if k < 1 or not 0 <= l < k:
        raise ValueError(f"bad progression k={k}, l={l}")
    g, s, t = _split_progression(k, l)
    if not is_r_free(g, r):
        return ProgressionReport(
            x=x, r=r, k=k, l=l, g=g, s=s, t=t, g_is_r_free=False,
            count=0, main_term=0.0, error_term=0.0, main_rel_error=0.0,
        )
    count = count_r_free_in_progression(table, x, r, k, l)
    fv = f_value(r, k, trial_factorize(k))
    main = main_term(x, r, k, l, fv)
    rel = fv.rel_error + 5 * 2.3e-16
    return ProgressionReport(
        x=x, r=r, k=k, l=l, g=g, s=s, t=t, g_is_r_free=True,
        count=count, main_term=main, error_term=count - main,
        main_rel_error=rel,
    )


def _int_rth_root(n: int, r: int) -> int:
    """floor(n^(1/r)) in exact integer arithmetic."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    if r == 2:
        return math.isqrt(n)
    x = int(round(n ** (1.0 / r)))
    while x > 0 and x**r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


def decompose(
    table: SieveTable, x: int, r: int, k: int, l: int, z: float
) -> DecompositionReport:
    """Split R(x; k, l) into the d <= z and d > z double sums, exactly.

    Requires a finite z >= 1 and gcd(l, k) r-free.  The two partial sums always
    recombine to the strided-scan count with zero tolerance.
    """
    if not (math.isfinite(z) and z >= 1):
        raise ValueError(f"z must be a finite number >= 1, got {z}")
    if k < 1 or not 0 <= l < k:
        raise ValueError(f"bad progression k={k}, l={l}")
    g, s, t = _split_progression(k, l)
    if not is_r_free(g, r):
        raise ValueError(f"gcd(l, k) = {g} is not {r}-free")
    count = count_r_free_in_progression(table, x, r, k, l)
    fact_k = trial_factorize(k)

    # valuation caps: for p | g with p not dividing s, u may carry p up to
    # exponent r - 1 - v_p(g); equivalently p^(r - v_p(g)) must not divide u.
    # N(d) is counted by inclusion-exclusion over products v of caps, each
    # term an arithmetic-progression count of u' <= u_limit // v.
    subsets = [(1, 1)]
    for p, e in trial_factorize(g).factors:
        if s % p != 0:
            subsets += [(v * p ** (r - e), -sign) for v, sign in subsets]

    # int64 throughout: every g*d^r <= x <= table.limit < 2^32.  On u <= x a
    # modulus, residue or cap product above x acts as x + 1 does, so those
    # are clipped there and a huge k never leaves int64.
    d_max = _int_rth_root(x // g, r)
    z_cut = min(int(math.floor(z)), d_max)
    mu = table.mu[1 : d_max + 1]
    keep = mu != 0
    for p, _ in fact_k.factors:
        if p <= d_max:
            keep[p - 1 :: p] = False  # d must be coprime to k
    ds = np.flatnonzero(keep) + 1
    dr = ds**r
    u_limit = (x // g) // dr
    s_clip = min(s, x + 1)

    # a = t * (v d^r)^(-1) mod s as its least positive representative, from
    # one modular inverse per distinct d^r mod s; then
    # #{1 <= u' <= L : u' = a (mod s)} = (L - a) // s + 1 for a in [1, s]
    inv_v = [pow(v, -1, s) for v, _ in subsets]
    residues, which = np.unique(dr % s_clip, return_inverse=True)
    a = np.array(
        [
            [min((t * pow(w, -1, s) * iv - 1) % s + 1, x + 1) for iv in inv_v]
            for w in residues.tolist()
        ],
        dtype=np.int64,
    ).reshape(residues.size, len(subsets))[which]
    v_clip = np.array([min(v, x + 1) for v, _ in subsets], dtype=np.int64)
    signs = np.array([sign for _, sign in subsets], dtype=np.int64)
    n_d = ((u_limit[:, None] // v_clip - a) // s_clip + 1) @ signs
    terms = mu[keep].astype(np.int64) * n_d
    split = int(np.searchsorted(ds, z_cut, side="right"))
    small = int(terms[:split].sum())
    large = int(terms[split:].sum())

    small_main = main_term(x, r, k, l, f_value(r, k, fact_k))

    return DecompositionReport(
        x=x,
        r=r,
        k=k,
        l=l,
        z=float(z),
        small_sum=small,
        large_sum=large,
        count=count,
        small_main=small_main,
        small_err=small - small_main,
    )


def lemma_bound_probe(rep: DecompositionReport) -> LemmaBoundRatios:
    """Normalize the two split sums of a decomposition by their closed-form
    bound shapes.

    small_residual divides |small_sum - main| by x z^(1-r) / k + 2^omega(g) z;
    large_ratio divides |large_sum| by r^omega(s) (x / (k z^(r-1)) + x / (g z^r)).
    Bounded ratios across sweeps are the empirical stand-in for the
    unspecified constants in the underlying estimates.
    """
    x, r, k, z = rep.x, rep.r, rep.k, rep.z
    g, s, _ = _split_progression(k, rep.l)
    omega_g = trial_factorize(g).omega
    omega_s = trial_factorize(s).omega
    small_denom = x * z ** (1 - r) / k + 2**omega_g * z
    large_denom = r**omega_s * (x / (k * z ** (r - 1)) + x / (g * z**r))
    return LemmaBoundRatios(
        small_residual=abs(rep.small_err) / small_denom,
        large_ratio=abs(rep.large_sum) / large_denom,
    )
