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
maximum.  ``count_solutions`` gives the count for any a and one s by
``arith.trial_factorize``.  ``per_modulus_maxima`` gives the a = 1 count of
every s <= s_max without factoring any s: N(s) = #{d mod s : d^r = 1} is
multiplicative, N(p^e) is ``_count_units(r, 1, p, e)``, and one windowed sieve
applies every prime power p^e <= s_max with p <= sqrt(s_max), the primes
of ``arith.primes_upto``, by strides, counting omega(s) in the same pass.
What is left of s after that is 1 or one prime q > sqrt(s_max), which
adds gcd(r, q - 1).  ``s_max`` lies below ``arith._LIMIT_CEILING`` = 2**32.
The sieve is checked a second way as it runs: each s where the running
maximum ratio rises, and every s divisible by ``_RECOUNT_EVERY``, is
recounted by ``count_solutions``, and a mismatch raises SelfCheckError.
``counts_vector`` (exhaustive histograms per prime power) and
``count_solutions_bruteforce`` are the oracles.  Every public function
takes its integers through ``operator.index``, so a float raises TypeError.

Import rule: this module imports no numpy at the top.  The counts are
integer arithmetic on Python lists and ints, so ``rfree residues`` starts
without numpy; only the histogram oracle, which the tests call, imports it
in its own body.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import add, floordiv, index, mul
from typing import Iterator, NamedTuple

from .arith import _LIMIT_CEILING, primes_upto, trial_factorize
from .errors import ResourceLimitError, SelfCheckError

_WINDOW = 1 << 12  # moduli per window of the per_modulus_maxima sieve
# per_modulus_maxima recounts every s divisible by this prime, besides each s
# where the maximum ratio rises: 1004 recounts at s_max = 1e6 and r = 3
_RECOUNT_EVERY = 997


class ResidueCount(NamedTuple):
    """Number of d in [0, s) with d^r = a (mod s), and the unit bound."""

    r: int
    a: int
    s: int
    count: int
    bound: float


def count_solutions_bruteforce(r: int, a: int, s: int) -> int:
    """Exhaustive count over d in [0, s); the oracle path."""
    r, a, s = index(r), index(a), index(s)
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
    r, a, s = index(r), index(a), index(s)
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

    r, s = index(r), index(s)
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

    The counts come from one sieve over windows of ``_WINDOW`` moduli,
    with no factoring: in each window every prime power p^e <= s_max with
    p <= sqrt(s_max) multiplies the count of its multiples by
    N(p^e) / N(p^(e-1)) and divides p out of what is left of them, and
    each p adds 1 to omega of its multiples.  The cofactor left, if above
    1, is one prime q > sqrt(s_max), with N(q) = gcd(r, q - 1).  A window
    holds three lists of ``_WINDOW`` ints, so memory is flat in s_max.

    Each s where the running maximum ratio rises (so the first maximum is
    among them) and each s divisible by ``_RECOUNT_EVERY`` is recounted by
    ``count_solutions``, which factors s and reads no sieve.  A row whose
    count or bound differs raises SelfCheckError before it is yielded; the
    rows before it have been yielded already.
    """
    r, s_max = index(r), index(s_max)
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if s_max < 2:
        raise ValueError(f"s_max must be >= 2, got {s_max}")
    if s_max >= _LIMIT_CEILING:
        raise ResourceLimitError(
            f"s_max={s_max} is not below 2**32: the sieve's primes go up to "
            "sqrt(s_max), and below 2**32 they are the primes below 2**16"
        )
    strides = []  # (p, p^e, N(p^e) // N(p^(e-1))) for every p^e <= s_max
    for p in primes_upto(math.isqrt(s_max)):
        units, pe, e = 1, p, 1
        while pe <= s_max:
            grown = _count_units(r, 1, p, e)
            strides.append((p, pe, grown // units))
            units, pe, e = grown, pe * p, e + 1
    # r^omega(s) as a float, as count_solutions' bound / 2 gives it; below
    # 2**32, omega(s) <= 9 (2*3*...*29 > 2**32)
    powers = [2.0 * r**w / 2 for w in range(10)]
    best = -math.inf  # the running maximum ratio
    for lo in range(1, s_max + 1, _WINDOW):
        hi = min(lo + _WINDOW, s_max + 1)
        count = [1] * (hi - lo)
        omega = [0] * (hi - lo)
        rest = list(range(lo, hi))
        for p, pe, factor in strides:
            at = -lo % pe  # index of the first multiple of p^e in the window
            rest[at::pe] = map(floordiv, rest[at::pe], repeat(p))
            if pe == p:
                omega[at::p] = map(add, omega[at::p], repeat(1))
            if factor != 1:
                count[at::pe] = map(mul, count[at::pe], repeat(factor))
        for s, c, w, q in zip(range(lo, hi), count, omega, rest):
            if q > 1:  # the one prime factor above sqrt(s_max)
                c *= math.gcd(r, q - 1)
                w += 1
            ratio = c / powers[w]
            if ratio > best or not s % _RECOUNT_EVERY:
                best = max(best, ratio)
                check = count_solutions(r, 1 % s, s)
                if (check.count, check.bound / 2) != (c, powers[w]):
                    raise SelfCheckError(
                        f"N({s}) at r={r}: the sieve gives count {c} and r^omega "
                        f"{powers[w]!r}, count_solutions {check.count} and {check.bound / 2!r}"
                    )
            yield ModulusMaximum(s, 1 % s, c, ratio)
