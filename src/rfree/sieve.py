"""Segmented sieve tables for the arithmetic functions used everywhere else.

A single pass over [1, N] produces, per integer n:

* ``mu``    -- the Mobius function, in {-1, 0, +1},
* ``spf``   -- the smallest prime factor (spf(1) = 1 by convention),
* ``omega`` -- the number of distinct prime factors,
* ``phi``   -- the Euler totient,
* ``mu_r``  -- for each requested r >= 2, the indicator of "r-free":
  1 iff no prime p has p^r | n (r = 2 gives the squarefree numbers).

Construction is segmented: base primes up to sqrt(N) are generated first,
then fixed-size windows are fully factored with vectorised strides, so that
scratch memory per window is bounded by the segment length no matter how
large N is.  The finished table is marked read-only and is safe to share
between threads or forked worker processes.

``mu_r_direct`` recomputes the r-free indicator for a single n as the
divisor sum of the Mobius function over d with d^r | n, using nothing but
trial division.  It is deliberately independent of the sieve and serves as
the cross-check oracle for the table.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import ConfigError, ResourceLimitError

DEFAULT_SEGMENT_LENGTH = 262_144
DEFAULT_MEMORY_BUDGET = 2 * 1024**3  # bytes of finished tables

_CACHE_MAGIC = b"RFSV1"


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of n as ordered (prime, exponent) pairs."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factors do not multiply to {self.n}")

    @property
    def omega(self) -> int:
        return len(self.factors)


class SieveTable:
    """Read-only arithmetic-function tables over [1, limit].

    Arrays are indexed directly by n (index 0 is unused filler).  ``mu_r``
    maps each requested r to a uint8 0/1 array.
    """

    __slots__ = ("limit", "rs", "mu", "spf", "omega", "phi", "mu_r")

    def __init__(self, limit, rs, mu, spf, omega, phi, mu_r):
        self.limit = limit
        self.rs = tuple(sorted(rs))
        self.mu = mu
        self.spf = spf
        self.omega = omega
        self.phi = phi
        self.mu_r = mu_r
        for arr in (mu, spf, omega, phi, *mu_r.values()):
            if arr.shape != (limit + 1,):
                raise ValueError(
                    f"table array of shape {arr.shape} does not cover [0, {limit}]"
                )
            arr.setflags(write=False)

    def __repr__(self):
        return f"SieveTable(limit={self.limit}, rs={self.rs})"


def _estimate_bytes(limit: int, n_rs: int) -> int:
    # int8 mu + uint32 spf + uint8 omega + uint32 phi + one uint8 flag per r
    return (limit + 1) * (10 + n_rs)


def small_primes(n: int) -> np.ndarray:
    """All primes <= n, by a plain boolean sieve (self-contained)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def build_sieve(
    limit: int,
    rs: Iterable[int],
    *,
    segment_length: int = DEFAULT_SEGMENT_LENGTH,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
) -> SieveTable:
    """Build the full table over [1, limit] for the given set of r values.

    Parameters
    ----------
    limit : int
        Inclusive upper bound N >= 1.
    rs : iterable of int
        The r values (each >= 2) for which r-free indicator tables are kept.
    segment_length : int
        Window size for the segmented factoring pass.  Different values
        yield bit-identical tables; only peak scratch memory changes.
    memory_budget_bytes : int
        Refuse to allocate finished tables larger than this.

    Raises
    ------
    ValueError
        If limit < 1 or some r < 2.
    ResourceLimitError
        If the finished tables would exceed ``memory_budget_bytes``, or if
        limit does not fit the 32-bit value tables.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    rset = tuple(sorted(set(int(r) for r in rs)))
    for r in rset:
        if r < 2:
            raise ValueError(f"every r must be >= 2, got {r}")
    if segment_length < 1:
        raise ValueError("segment_length must be >= 1")
    need = _estimate_bytes(limit, len(rset))
    if need > memory_budget_bytes:
        raise ResourceLimitError(
            f"tables for limit={limit} need {need} bytes, exceeding the "
            f"memory budget of {memory_budget_bytes} bytes"
        )
    if limit >= 2**32:
        raise ResourceLimitError(
            f"limit={limit} does not fit the 32-bit spf/phi tables"
        )

    n1 = limit + 1
    mu = np.zeros(n1, dtype=np.int8)
    spf = np.zeros(n1, dtype=np.uint32)
    omega = np.zeros(n1, dtype=np.uint8)
    phi = np.zeros(n1, dtype=np.uint32)

    base = small_primes(math.isqrt(limit))

    for lo in range(1, n1, segment_length):
        hi = min(lo + segment_length - 1, limit)
        size = hi - lo + 1
        rem = np.arange(lo, hi + 1, dtype=np.int64)
        mu_s = np.ones(size, dtype=np.int8)
        omega_s = np.zeros(size, dtype=np.uint8)
        phi_s = np.ones(size, dtype=np.int64)
        spf_s = np.zeros(size, dtype=np.uint32)

        sq = math.isqrt(hi)
        for p in base:
            p = int(p)
            if p > sq:
                break
            start = ((lo + p - 1) // p) * p
            if start > hi:
                continue
            sl = slice(start - lo, size, p)
            view = spf_s[sl]
            view[view == 0] = p
            omega_s[sl] += 1
            mu_s[sl] = -mu_s[sl]
            phi_s[sl] *= p - 1
            rem[sl] //= p
            # exponent >= 2: chain-divide the survivors
            rel = np.nonzero(rem[sl] % p == 0)[0]
            if rel.size:
                cur = (start - lo) + rel * p
                mu_s[cur] = 0
                while cur.size:
                    phi_s[cur] *= p
                    rem[cur] //= p
                    cur = cur[rem[cur] % p == 0]

        big = rem > 1  # at most one prime factor > sqrt(hi) can remain
        mu_s[big] = -mu_s[big]
        omega_s[big] += 1
        phi_s[big] *= rem[big] - 1
        left = big & (spf_s == 0)
        spf_s[left] = rem[left]  # n itself is prime

        mu[lo : hi + 1] = mu_s
        spf[lo : hi + 1] = spf_s
        omega[lo : hi + 1] = omega_s
        phi[lo : hi + 1] = phi_s.astype(np.uint32)

    spf[1] = 1  # convention: avoids a sentinel branch in factorize

    mu_r: dict[int, np.ndarray] = {}
    for r in rset:
        flags = np.ones(n1, dtype=np.uint8)
        flags[0] = 0
        for p in base:
            q = int(p) ** r
            if q > limit:
                break
            flags[q::q] = 0
        mu_r[r] = flags

    return SieveTable(limit, rset, mu, spf, omega, phi, mu_r)


def factorize(table: SieveTable, n: int) -> Factorization:
    """Factor n by repeated division by the tabled smallest prime factor."""
    if not 1 <= n <= table.limit:
        raise ValueError(f"n={n} outside table range [1, {table.limit}]")
    spf = table.spf
    out = []
    m = n
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return Factorization(n, tuple(out))


def trial_factorize(n: int) -> Factorization:
    """Factor n by trial division; independent of any sieve table."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
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


def totient_value(fact: Factorization) -> int:
    """Euler totient from a factorization (exact integer arithmetic)."""
    out = 1
    for p, e in fact.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


@lru_cache(maxsize=65536)
def _mobius_trial(n: int) -> int:
    if n == 1:
        return 1
    sign = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1 if p == 2 else 2
    if m > 1:
        sign = -sign
    return sign


def is_r_free(n: int, r: int) -> bool:
    """True iff no prime r-th power divides n (trial division, no table)."""
    if n < 1 or r < 2:
        raise ValueError("need n >= 1 and r >= 2")
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e >= r:
                return False
        p += 1 if p == 2 else 2
    return True


def mu_r_direct(n: int, r: int) -> int:
    """r-free indicator of n as the literal Mobius sum over d with d^r | n.

    Enumerates every d with d^r <= n, adding mu(d) whenever d^r divides n.
    Always lands in {0, 1}; agrees with the sieve's mu_r table and serves
    as its independent oracle.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    total = 0
    if r == 2:
        d = 1
        while d * d <= n:
            if n % (d * d) == 0:
                total += _mobius_trial(d)
            d += 1
    else:
        d = 1
        dr = 1
        while dr <= n:
            if n % dr == 0:
                total += _mobius_trial(d)
            d += 1
            dr = d**r
    return total


# ---------------------------------------------------------------------------
# Binary cache: magic "RFSV1", then limit, the r set, and the packed tables,
# all little-endian.  mu is stored as 2-bit codes (mu + 1), four per byte;
# each r-free table is stored one bit per n.  Reload is bit-identical, and a
# file whose size differs from what its header implies is refused.
# ---------------------------------------------------------------------------


def _pack_mu(mu: np.ndarray) -> bytes:
    codes = (mu.astype(np.int16) + 1).astype(np.uint8)
    pad = (-codes.size) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    q = codes.reshape(-1, 4)
    packed = q[:, 0] | (q[:, 1] << 2) | (q[:, 2] << 4) | (q[:, 3] << 6)
    return packed.tobytes()


def _unpack_mu(raw: bytes, n: int) -> np.ndarray:
    packed = np.frombuffer(raw, dtype=np.uint8)
    codes = np.empty(packed.size * 4, dtype=np.uint8)
    codes[0::4] = packed & 3
    codes[1::4] = (packed >> 2) & 3
    codes[2::4] = (packed >> 4) & 3
    codes[3::4] = (packed >> 6) & 3
    return codes[:n].astype(np.int8) - 1


def save_cache(table: SieveTable, path) -> None:
    """Write the table to ``path`` in the packed binary format.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` in one step, so an interrupted save never leaves a
    torn cache behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(np.array(table.limit, dtype="<u8").tobytes())
            fh.write(np.array(len(table.rs), dtype="<u4").tobytes())
            fh.write(np.asarray(table.rs, dtype="<u4").tobytes())
            fh.write(_pack_mu(table.mu))
            fh.write(table.spf.astype("<u4").tobytes())
            fh.write(table.omega.tobytes())
            fh.write(table.phi.astype("<u4").tobytes())
            for r in table.rs:
                fh.write(np.packbits(table.mu_r[r]).tobytes())
            assert fh.tell() == _cache_size(table.limit, len(table.rs)), "cache layout"
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the replace
            os.unlink(tmp)


def _cache_size(limit: int, n_rs: int) -> int:
    n1 = limit + 1
    return (
        5 + 8 + 4 + 4 * n_rs
        + (n1 + 3) // 4          # mu, 2 bits each
        + 4 * n1                 # spf
        + n1                     # omega
        + 4 * n1                 # phi
        + n_rs * ((n1 + 7) // 8)  # r-free flags, 1 bit each
    )


def load_cache(path) -> SieveTable:
    """Reload a table written by :func:`save_cache` (bit-identical).

    Raises ConfigError, before any table is read, unless the file carries
    the magic and its size is exactly what its header implies.
    """
    with open(path, "rb") as fh:
        header = fh.read(17)
        magic = header[:5]
        if magic != _CACHE_MAGIC:
            raise ConfigError(f"{path} is not a sieve cache file: bad magic {magic!r}")
        if len(header) < 17:
            raise ConfigError(f"sieve cache {path} is cut short inside its header")
        limit = int(np.frombuffer(header[5:13], dtype="<u8")[0])
        n_rs = int(np.frombuffer(header[13:17], dtype="<u4")[0])
        size = os.fstat(fh.fileno()).st_size
        expected = _cache_size(limit, n_rs)
        if size != expected:
            raise ConfigError(
                f"sieve cache {path} is {size} bytes, but its header "
                f"(limit={limit}, {n_rs} r values) implies {expected}; "
                "delete it to rebuild"
            )
        rset = tuple(int(v) for v in np.frombuffer(fh.read(4 * n_rs), dtype="<u4"))
        n1 = limit + 1
        mu = _unpack_mu(fh.read((n1 + 3) // 4), n1)
        spf = np.frombuffer(fh.read(4 * n1), dtype="<u4").astype(np.uint32)
        omega = np.frombuffer(fh.read(n1), dtype=np.uint8).copy()
        phi = np.frombuffer(fh.read(4 * n1), dtype="<u4").astype(np.uint32)
        mu_r = {}
        for r in rset:
            bits = np.frombuffer(fh.read((n1 + 7) // 8), dtype=np.uint8)
            mu_r[r] = np.unpackbits(bits)[:n1].astype(np.uint8)
    return SieveTable(limit, rset, mu, spf, omega, phi, mu_r)
