"""Sieve tables: r-free flags over [1, N], factoring tables up to sqrt(N).

Every count the package makes reads one of two things: the r-free
indicator of each n <= x, summed along a progression, or the Mobius
function up to x^(1/r), in the d-sums of ``decompose``.  No count reads a
table: ``_r_free_windows(x, r)``, the one loop that runs the windowed
kernel ``_sieve_window``, yields the flags of [0, x] one scratch window at
a time, which ``r_free_counts`` sums, ``progressions._class_counts``
counts by strides and ``build_sieve`` packs.  Only ``rfree sieve`` and
its cache hold a flag table.

* ``build_sieve(N, rs)`` gives a :class:`SieveTable` holding, for each
  requested r >= 2, ``mu_r[r]``: one bit per n in [0, N], 1 iff no prime p
  has p^r | n (r = 2 gives the squarefree numbers), packed eight to a
  uint8 as ``np.packbits`` packs them (n = 0 in the high bit of byte 0,
  zero pad bits after n = N); ``SieveTable.r_free_count`` reads the totals
  back as a popcount.  The table also holds ``mu``, ``spf``, ``omega`` and
  ``phi`` over [0, isqrt(N)] only, taken from ``factor_sieve(isqrt(N))``.
* ``factor_sieve(N)`` gives a :class:`FactorTable` with the Mobius
  function, smallest prime factor (spf(1) = 1), number of distinct prime
  factors and Euler totient of every n in [0, N], in one pass over the
  prime powers of ``_prime_powers``.  Only ``omega_vs_tau_check``, the
  demos and the tests need these tables over a full range.

Every table over [0, N], here and in ``tau_table``, keeps one size rule,
``_check_table_size``: N >= 1, N < 2**32 and at most 2 GiB of arrays.
Every count keeps one range rule, ``_check_count_range``: r >= 2 and
0 <= x < 2**32.

Finished tables are read-only.  ``save_cache``/``load_cache`` store only
the packed flags, byte for byte as the table holds them, checksummed; the
sqrt(N) tables are rebuilt on load.

The per-number oracles of the flags, ``mu_r_direct`` and ``is_r_free``,
read no table and live in ``rfree.arith``.
"""

from __future__ import annotations

import math
import os
import zlib
from typing import Iterable

import numpy as np

from .errors import ConfigError, ResourceLimitError

_MEMORY_BUDGET = 2 * 1024**3  # bytes of finished tables
# every table limit and every x lies below this: the uint32 spf/phi tables
# and the int64 arithmetic of the Mobius sums are shown exact there
_LIMIT_CEILING = 2**32
# uint8 flags per window of the r-free kernel: 1 MiB, a multiple of 8, so
# each window packs into whole bytes of a flag table
_COUNT_WINDOW = 1 << 20
# set bits of each byte value, for the popcount of packed flags
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _freeze(arrays_and_lengths) -> None:
    """Check that each array is 1-D of its length, then make it read-only."""
    for arr, length in arrays_and_lengths:
        if arr.shape != (length,):
            raise ValueError(
                f"table array of shape {arr.shape} does not cover [0, {length - 1}]"
            )
        arr.setflags(write=False)


class FactorTable:
    """Read-only mu, spf, omega and phi over [0, limit], indexed by n.

    Index 0 is unused filler.
    """

    __slots__ = ("limit", "mu", "spf", "omega", "phi")

    def __init__(self, limit, mu, spf, omega, phi):
        self.limit = limit
        self.mu = mu
        self.spf = spf
        self.omega = omega
        self.phi = phi
        _freeze((arr, limit + 1) for arr in (mu, spf, omega, phi))

    def __repr__(self):
        return f"FactorTable(limit={self.limit})"


class SieveTable:
    """Read-only r-free flags over [0, limit], factoring tables over
    [0, isqrt(limit)].

    ``mu_r`` maps each requested r to the packed r-free flags of n in
    [0, limit]: (limit + 8) // 8 uint8 bytes in ``np.packbits`` order, the
    flag of n in bit 7 - n % 8 of byte n // 8, pad bits zero;
    ``r_free_count`` reads them.  ``mu``, ``spf``, ``omega`` and
    ``phi`` have length isqrt(limit) + 1: the Mobius sums need mu(d) only
    for d^r <= limit.  They are indexed directly by n (index 0 is unused
    filler).
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
        root = math.isqrt(limit) + 1
        _freeze([
            *((arr, root) for arr in (mu, spf, omega, phi)),
            *((flags, _packed_size(limit)) for flags in mu_r.values()),
        ])

    def __repr__(self):
        return f"SieveTable(limit={self.limit}, rs={self.rs})"

    def r_free_count(self, x: int, r: int) -> int:
        """#{1 <= n <= x : n r-free}: the popcount of the flag bytes of [0, x],
        ``_COUNT_WINDOW`` bytes at a time, less the bits past x in the last byte.
        Raises ValueError unless the table holds the flags of r over [0, x]."""
        if r not in self.mu_r or not 0 <= x <= self.limit:
            raise ValueError(f"the table holds no flags of r={r} over [0, {x}]")
        packed = self.mu_r[r][: x // 8 + 1]
        total = sum(
            int(_BYTE_BITS[packed[lo : lo + _COUNT_WINDOW]].sum(dtype=np.int64))
            for lo in range(0, packed.size, _COUNT_WINDOW)
        )
        return total - int(_BYTE_BITS[packed[-1] & (0xFF >> (x % 8 + 1))])


def _packed_size(limit: int) -> int:
    """Bytes of one packed flag array over [0, limit]."""
    return (limit + 8) // 8


def _check_table_size(
    limit: int, per_n: int, per_root_n: int = 0, flag_arrays: int = 0
) -> None:
    """The one size rule for a table over [0, limit]: ``per_n`` bytes per n,
    ``per_root_n`` bytes per n <= isqrt(limit) and ``flag_arrays`` packed
    flag arrays of (limit + 8) // 8 bytes each.

    Raises ValueError if limit < 1, and ResourceLimitError, before anything
    is allocated, if limit is not below 2**32 or the table would take more
    than 2 GiB.  The 2**32 ceiling is checked first.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit >= _LIMIT_CEILING:
        raise ResourceLimitError(
            f"limit={limit} is not below 2**32, the range in which the 32-bit "
            "spf/phi tables and class_counts' int64 arithmetic are shown exact"
        )
    need = (
        (limit + 1) * per_n
        + (math.isqrt(limit) + 1) * per_root_n
        + flag_arrays * _packed_size(limit)
    )
    if need > _MEMORY_BUDGET:
        raise ResourceLimitError(
            f"tables for limit={limit} need {need} bytes, exceeding the "
            f"memory budget of {_MEMORY_BUDGET} bytes"
        )


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


def _prime_powers(limit: int):
    """Yield (p, e, at) for every prime power p^e <= limit, p ascending;
    ``at`` indexes the multiples of p^e (the slice p^e::p^e).

    A prime above isqrt(limit) divides each n <= limit at most once, so
    those primes come grouped by cofactor m, as (ps, 1, m * ps).
    """
    primes = small_primes(limit)
    root = math.isqrt(limit)
    n_small = int(np.searchsorted(primes, root, side="right"))
    for p in primes[:n_small].tolist():
        q, e = p, 1
        while q <= limit:
            yield p, e, slice(q, None, q)
            q *= p
            e += 1
    large = primes[n_small:]
    for m in range(1, limit // (root + 1) + 1):
        ps = large[: np.searchsorted(large, limit // m, side="right")]
        yield ps, 1, m * ps


def factor_sieve(limit: int) -> FactorTable:
    """mu, spf, omega and phi for every n in [1, limit].

    One pass over ``_prime_powers(limit)``: each multiple of p flips mu,
    counts in omega, takes the factor p - 1 of phi and, unless a smaller
    prime came first, takes p as spf; each multiple of p^e, e >= 2, gets
    mu = 0 and one more factor p of phi.  Raises ValueError if limit < 1
    and ResourceLimitError if the tables break ``_check_table_size``.
    """
    # int8 mu + uint32 spf + uint8 omega + uint32 phi per n
    _check_table_size(limit, 10)

    mu = np.ones(limit + 1, dtype=np.int8)
    spf = np.zeros(limit + 1, dtype=np.uint32)
    omega = np.zeros(limit + 1, dtype=np.uint8)
    phi = np.ones(limit + 1, dtype=np.uint32)
    mu[0] = phi[0] = 0
    for p, e, at in _prime_powers(limit):
        if e == 1:
            mu[at] = -mu[at]
            omega[at] += 1
            phi[at] = phi[at] * (p - 1)
            first = spf[at]
            spf[at] = np.where(first == 0, p, first)
        else:
            mu[at] = 0
            phi[at] = phi[at] * p

    spf[1] = 1  # convention: spf(1) = 1, as the module docstring states
    return FactorTable(limit, mu, spf, omega, phi)


def build_sieve(limit: int, rs: Iterable[int]) -> SieveTable:
    """r-free flags over [1, limit] for each r (>= 2) of ``rs``.

    Raises ValueError if some r < 2, and ValueError or ResourceLimitError
    if the tables break ``_check_table_size``.
    """
    rset = tuple(sorted(set(int(r) for r in rs)))
    for r in rset:
        if r < 2:
            raise ValueError(f"every r must be >= 2, got {r}")
    # one packed bit per n and r, plus the factor tables up to isqrt(limit)
    _check_table_size(limit, 0, per_root_n=10, flag_arrays=len(rset))

    mu_r: dict[int, np.ndarray] = {}
    for r in rset:
        mu_r[r] = packed = np.empty(_packed_size(limit), dtype=np.uint8)
        for lo, window in _r_free_windows(limit, r):
            # lo is a multiple of 8; packbits zeroes the pad bits of the last window
            packed[lo // 8 : (lo + window.size + 7) // 8] = np.packbits(window)
        del window  # the scratch of this r; the next r sieves into its own
    return _with_root_factors(limit, rset, mu_r)


def _check_count_range(x: int, r: int) -> None:
    """The one range rule of every count over [1, x]: r >= 2 and
    0 <= x < 2**32, where the int64 Mobius sums are shown exact.  Raises
    ValueError."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if not 0 <= x < _LIMIT_CEILING:
        raise ValueError(f"x={x} outside [0, 2**32)")


def _r_powers(top: int, r: int) -> tuple[list[int], np.ndarray]:
    """The p^r <= top: those below ``_COUNT_WINDOW`` (cleared by strides)
    and the rest (fancy-indexed; each hits a window at most once)."""
    powers = [p**r for p in small_primes(math.isqrt(top)).tolist() if p**r <= top]
    dense = [q for q in powers if q < _COUNT_WINDOW]
    return dense, np.array(powers[len(dense) :], dtype=np.int64)


def _sieve_window(window: np.ndarray, lo: int, dense, sparse: np.ndarray) -> None:
    """Set ``window`` to the r-free flags of n = lo ... lo + window.size - 1.

    ``dense`` and ``sparse`` are the two parts of ``_r_powers(top, r)`` for
    some top >= the last n; n = 0 gets flag 0.
    """
    window.fill(1)
    if lo == 0:
        window[0] = 0  # n = 0 is not counted
    for q in dense:
        window[-lo % q :: q] = 0
    hits = -lo % sparse
    window[hits[hits < window.size]] = 0


def _r_free_windows(x: int, r: int):
    """Yield (lo, flags) over [0, x]: the r-free flags of n = lo, lo + 1,
    ... as uint8 0/1, one window of ``_COUNT_WINDOW`` at a time, each in the
    one scratch buffer that the next step refills.  The one kernel loop.
    """
    powers = _r_powers(x, r)
    scratch = np.empty(min(_COUNT_WINDOW, x + 1), dtype=np.uint8)
    for lo in range(0, x + 1, _COUNT_WINDOW):
        window = scratch[: min(_COUNT_WINDOW, x + 1 - lo)]  # n = lo + index
        _sieve_window(window, lo, *powers)
        yield lo, window


def r_free_counts(xs: Iterable[int], r: int) -> list[int]:
    """#{1 <= n <= x : n r-free} for each x of ``xs``, in the order given.

    One pass of ``_r_free_windows`` over [0, max(xs)] serves every x.  No
    Mobius value is read, so the count is independent of the Mobius sums
    it checks.  Raises ValueError, before any window, unless r and every
    x keep ``_check_count_range``.
    """
    xs = [int(x) for x in xs]
    for x in [0, *xs]:  # r is checked even when xs is empty
        _check_count_range(x, r)
    pending = sorted(range(len(xs)), key=xs.__getitem__, reverse=True)
    counts = [0] * len(xs)
    below = 0  # r-free n in [1, lo)
    for lo, window in _r_free_windows(max(xs, default=0), r):
        while pending and xs[pending[-1]] < lo + window.size:
            i = pending.pop()
            counts[i] = below + int(np.count_nonzero(window[: xs[i] - lo + 1]))
        below += int(np.count_nonzero(window))
    return counts


def _with_root_factors(limit: int, rs, mu_r: dict) -> SieveTable:
    root = factor_sieve(math.isqrt(limit))
    return SieveTable(limit, rs, root.mu, root.spf, root.omega, root.phi, mu_r)


# ---------------------------------------------------------------------------
# Binary cache, little-endian:
#
#   "RFSV2" | crc32 (u32) | limit (u64) | #r (u32) | r values (u32 each) | flags
#
# The flags of each r, in the order of the r values, are the table's
# ``mu_r[r]`` bytes: one bit per n in [0, limit], pad bits zero.  The crc32
# covers every byte after itself.  Reload is bit-identical; a file whose
# size differs from what its header implies, whose checksum fails or whose
# pad bits are not zero is refused.  The sqrt(limit) tables are not stored,
# because rebuilding them costs less than reading them.
# ---------------------------------------------------------------------------

_CACHE_MAGIC = b"RFSV2"
_OLD_MAGIC = b"RFSV1"
_HEAD = 5 + 4 + 8 + 4  # magic, crc32, limit, #r


def _cache_size(limit: int, n_rs: int) -> int:
    return _HEAD + 4 * n_rs + n_rs * _packed_size(limit)


def save_cache(table: SieveTable, path) -> None:
    """Write the table's packed flags to ``path`` in the binary format.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` in one step, so an interrupted save never leaves a
    torn cache behind.  The flags are written as the table holds them and
    the crc32 is filled in last, so the save allocates nothing of size N.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    head = [
        np.array(table.limit, dtype="<u8"),
        np.array(len(table.rs), dtype="<u4"),
        np.asarray(table.rs, dtype="<u4"),
    ]
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC + bytes(4))  # the crc32 is filled in below
            crc = 0
            for part in head + [table.mu_r[r] for r in table.rs]:
                fh.write(part)
                crc = zlib.crc32(part, crc)
            assert fh.tell() == _cache_size(table.limit, len(table.rs)), "cache layout"
            fh.seek(len(_CACHE_MAGIC))
            fh.write(np.array(crc, dtype="<u4").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the replace
            os.unlink(tmp)


def load_cache(path) -> SieveTable:
    """Reload a table written by :func:`save_cache` (bit-identical).

    Raises ConfigError unless the file carries the current magic, its
    size is exactly what its header implies (checked before any table is
    read), its checksum matches and every pad bit past ``limit`` is zero,
    as ``save_cache`` writes it (both checked before the table is built).
    The table keeps the packed bytes as read, read-only, so the load holds
    nothing beyond them.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEAD)
        magic = head[:5]
        if magic == _OLD_MAGIC:
            raise ConfigError(
                f"{path} is a sieve cache in the older RFSV1 format, "
                "which this version does not read; delete it and rebuild"
            )
        if magic != _CACHE_MAGIC:
            raise ConfigError(f"{path} is not a sieve cache file: bad magic {magic!r}")
        if len(head) < _HEAD:
            raise ConfigError(f"sieve cache {path} is cut short inside its header")
        crc = int(np.frombuffer(head, dtype="<u4", count=1, offset=5)[0])
        limit = int(np.frombuffer(head, dtype="<u8", count=1, offset=9)[0])
        n_rs = int(np.frombuffer(head, dtype="<u4", count=1, offset=17)[0])
        size = os.fstat(fh.fileno()).st_size
        expected = _cache_size(limit, n_rs)
        if size != expected:
            raise ConfigError(
                f"sieve cache {path} is {size} bytes, but its header "
                f"(limit={limit}, {n_rs} r values) implies {expected}; "
                "delete it to rebuild"
            )
        r_values = fh.read(4 * n_rs)
        actual = zlib.crc32(r_values, zlib.crc32(head[9:]))  # every byte after the crc32
        rset = tuple(int(v) for v in np.frombuffer(r_values, dtype="<u4"))
        mu_r = {}
        for r in rset:
            packed = fh.read(_packed_size(limit))
            actual = zlib.crc32(packed, actual)
            mu_r[r] = np.frombuffer(packed, dtype=np.uint8)  # read-only, no copy
    if actual != crc:
        raise ConfigError(
            f"sieve cache {path} fails its checksum (crc32 {actual:#010x}, "
            f"header says {crc:#010x}); delete it to rebuild"
        )
    pad = (1 << (7 - limit % 8)) - 1  # the bits of n = limit + 1, ... in the last byte
    for r, packed in mu_r.items():
        if packed[-1] & pad:
            raise ConfigError(
                f"sieve cache {path} sets pad bits past limit={limit} in the "
                f"flags of r={r}, which save_cache never writes; delete it to rebuild"
            )
    return _with_root_factors(limit, rset, mu_r)
