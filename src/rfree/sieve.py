"""Sieves: r-free flags over [0, x] by windows, the Mobius function and
the d-terms of the Mobius sums.

Every count the package makes reads one of two things: the r-free
indicator of each n <= x, summed along a progression, or the Mobius
function up to x^(1/r), in the d-sums of ``decompose`` and of the bv-sum
sweep.  No count reads a flag table: ``_r_free_windows(x, r)``, the one
loop that runs the windowed kernel ``_sieve_window``, yields the flags of
[0, x] one scratch window at a time, which ``sieve._class_counts`` counts
by strides and ``save_cache`` packs into its file.

* ``_class_counts(r, classes)`` gives R(x; k, l), the r-free n <= x with
  n = l (mod k), for each (x, k, l), from one pass over [0, max x].
* ``r_free_counts(xs, r)`` gives #{1 <= n <= x : no prime p has p^r | n}
  for each x (r = 2 counts the squarefree numbers): the class (x, 1, 0).
* ``save_cache(path, limit, rs)`` writes the flags of [0, limit] for each
  r, packed eight to a byte as ``np.packbits`` packs them (n = 0 in the
  high bit of byte 0, zero pad bits after n = limit), and returns the
  totals, holding one window and its packed bytes.  The file is written
  and never read: no function of the package parses it.
* ``mobius_sieve(N)`` gives the Mobius function of every n in [0, N] as
  a read-only int8 array, from the primes p <= sqrt(N) and a cofactor
  left 1 or one prime; ``_root_mu(x, r)`` sieves it up to x^(1/r) and
  checks mu * 1 = epsilon, and ``_d_terms`` reads off it the d-terms
  (d, mu(d), d^r, x // d^r) both Mobius sums share.
* ``_check_flag_totals(xs, r, totals)`` checks each total against the
  Mobius sum where it is counted: in ``r_free_counts`` before it returns
  and in ``save_cache`` before its file replaces the path.

A table over [0, N] keeps one size rule, ``_check_table_size``: N >= 1,
N < 2**32 and at most 2 GiB of table.  Every count keeps one range rule,
``_check_count_range``: 2 <= r < 64 and 0 <= x < 2**32.  Both ceilings
are defined in ``rfree.arith``, with the prime sieve, the integer root
and the per-number oracles of the flags, ``mu_r_direct`` and ``is_r_free``.
"""

from __future__ import annotations

import math
import os
import zlib
from operator import index
from typing import Iterable

import numpy as np

from .arith import _LIMIT_CEILING, _R_CEILING, _int_rth_root, primes_upto
from .errors import ConfigError, ResourceLimitError, SelfCheckError

_MEMORY_BUDGET = 2 * 1024**3  # bytes of finished tables
# uint8 flags per window of the r-free kernel: 1 MiB, a multiple of 8, so
# each window packs into whole bytes of the cache
_COUNT_WINDOW = 1 << 20


def _packed_size(limit: int) -> int:
    """Bytes of one packed flag array over [0, limit]."""
    return (limit + 8) // 8


def _check_table_size(limit: int) -> int:
    """The one size rule for a table of one byte per n in [0, limit], which
    it returns as an int.

    Raises TypeError unless limit is an integer (``operator.index``),
    ValueError if limit < 1, and ResourceLimitError, before anything
    is allocated, if limit is not below 2**32 or the table would take more
    than 2 GiB.  The 2**32 ceiling is checked first.  The budget covers the
    finished table; ``mobius_sieve`` holds only one window's scratch more,
    5 bytes for each of at most ``_COUNT_WINDOW`` n.
    """
    limit = index(limit)
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit >= _LIMIT_CEILING:
        raise ResourceLimitError(
            f"limit={limit} is not below 2**32, the range in which the int64 "
            "Mobius sums and the uint64 residue products are shown exact"
        )
    if limit + 1 > _MEMORY_BUDGET:
        raise ResourceLimitError(
            f"a table for limit={limit} needs {limit + 1} bytes, exceeding the "
            f"memory budget of {_MEMORY_BUDGET} bytes"
        )
    return limit


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(n) for every n in [0, limit] as a read-only int8 array (mu(0) = 0).

    One pass over windows of ``_COUNT_WINDOW`` n, each walking the primes
    p <= sqrt(limit): p flips mu on its multiples, zeroes it on those of
    p^2, and is divided once out of the uint32 cofactor of each multiple.
    A squarefree n whose cofactor ends above 1 has one prime factor above
    sqrt(limit), so mu flips once more there.  Raises ValueError if
    limit < 1 and ResourceLimitError if the table breaks
    ``_check_table_size``.
    """
    limit = _check_table_size(limit)
    mu = np.ones(limit + 1, dtype=np.int8)
    primes = primes_upto(math.isqrt(limit))
    for lo in range(0, limit + 1, _COUNT_WINDOW):
        window = mu[lo : lo + _COUNT_WINDOW]  # n = lo + index
        rest = np.arange(lo, lo + window.size, dtype=np.uint32)  # n < 2**32
        for p in primes:
            hit = window[-lo % p :: p]
            np.negative(hit, out=hit)
            window[-lo % (p * p) :: p * p] = 0
            rest[-lo % p :: p] //= p
        np.negative(window, out=window, where=rest > 1)
        del rest  # before the next window's cofactors are made
    mu[0] = 0
    mu.setflags(write=False)
    return mu


def _root_mu(x: int, r: int) -> np.ndarray:
    """The Mobius function indexed by n, over [0, Y], Y = max(1, x^(1/r)),
    which every Mobius sum reads.  Raises SelfCheckError unless
    sum_{d | n} mu(d) = [n = 1] for every n in [1, Y], which fixes mu on
    [1, Y].  Each pair (d, j d) with j d <= Y is added once, by strides:
    over j for each d <= sqrt(Y), and over d > sqrt(Y) for each j."""
    mu = mobius_sieve(max(1, _int_rth_root(x, r)))
    top, root = mu.size - 1, math.isqrt(mu.size - 1)
    sums = np.zeros(top + 1, dtype=np.int32)
    sums[1] = -1  # so that every n sums to 0 when mu is right
    for d in range(1, root + 1):
        sums[d::d] += mu[d]
    for j in range(1, top // (root + 1) + 1):
        sums[j * (root + 1) :: j] += mu[root + 1 : top // j + 1]
    if sums.any():
        raise SelfCheckError(f"mu * 1 = epsilon fails at n={np.flatnonzero(sums)[0]}")
    return mu


def _d_terms(mu: np.ndarray, x: int, r: int) -> tuple[np.ndarray, ...]:
    """(d, mu(d), d^r, x // d^r) over the squarefree d <= x^(1/r), as int64.

    ``mu`` is the Mobius function indexed by n, up to at least x^(1/r).
    """
    # int64 throughout: every d^r <= x, and every caller has x < 2^32
    # (_check_count_range and ExperimentConfig.validate refuse larger x)
    d_max = _int_rth_root(x, r)
    if mu.size <= d_max:
        raise ValueError(f"mu covers [0, {mu.size - 1}], below x^(1/r) = {d_max}")
    mu = mu[1 : d_max + 1]
    ds = np.flatnonzero(mu) + 1
    dr = ds**r
    return ds, mu[ds - 1].astype(np.int64), dr, x // dr


def _check_count_range(x: int, r: int) -> tuple[int, int]:
    """The one range rule of every count over [1, x]: 2 <= r < 64 and
    0 <= x < 2**32, where the int64 Mobius sums are shown exact.  Raises
    ValueError, and TypeError unless x and r are integers, which it returns
    as ints (x, r)."""
    x, r = index(x), index(r)
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if r >= _R_CEILING:
        raise ValueError(f"r must be below 64, got {r}: 2**r exceeds every x")
    if not 0 <= x < _LIMIT_CEILING:
        raise ValueError(f"x={x} outside [0, 2**32)")
    return x, r


def _check_flag_totals(xs: list[int], r: int, totals: list[int]) -> None:
    """Raise SelfCheckError unless each total = sum_{d^r <= x} mu(d) (x // d^r)
    for its x of ``xs``; mu is sieved once, up to max(xs)^(1/r)."""
    mu = _root_mu(max(xs, default=0), r)
    for x, total in zip(xs, totals):
        _, mu_d, _, per_d = _d_terms(mu, x, r)
        if total != int(mu_d @ per_d):
            raise SelfCheckError(f"r={r}: the flags count {total}, the Mobius sum {mu_d @ per_d}")


def _r_powers(top: int, r: int) -> tuple[list[int], np.ndarray]:
    """The p^r <= top: those below ``_COUNT_WINDOW`` (cleared by strides)
    and the rest (fancy-indexed; each hits a window at most once)."""
    powers = [p**r for p in primes_upto(_int_rth_root(top, r))]
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


def _class_counts(r: int, classes: Iterable[tuple[int, int, int]]) -> list[int]:
    """R(x; k, l) = #{1 <= n <= x : n = l (mod k), n r-free} for each (x, k, l),
    by strides over one pass of ``_r_free_windows``; the caller checks r and each class."""
    classes = [(x, l if l >= 1 else k, k) for x, k, l in classes]
    counts = [0] * len(classes)
    for lo, window in _r_free_windows(max((x for x, _, _ in classes), default=0), r):
        for i, (x, start, k) in enumerate(classes):
            first = start - lo if start >= lo else (start - lo) % k  # n = lo + index
            if first <= x - lo:  # else the stop below would count from the end
                counts[i] += int(np.count_nonzero(window[first : x - lo + 1 : k]))
    return counts


def r_free_counts(xs: Iterable[int], r: int) -> list[int]:
    """#{1 <= n <= x : n r-free} for each x of ``xs``, in the order given.

    One ``_class_counts`` pass over [0, max(xs)] serves every x.  The
    flags read no Mobius value, so each total is checked against the
    Mobius sum by ``_check_flag_totals`` before any is returned
    (SelfCheckError otherwise).  Raises ValueError, before any window,
    unless r and every x keep ``_check_count_range``.
    """
    _, r = _check_count_range(0, r)  # r is checked even when xs is empty
    xs = [_check_count_range(x, r)[0] for x in xs]
    totals = _class_counts(r, [(x, 1, 0) for x in xs])
    _check_flag_totals(xs, r, totals)
    return totals


# ---------------------------------------------------------------------------
# Binary cache, little-endian:
#
#   "RFSV2" | crc32 (u32) | limit (u64) | #r (u32) | r values (u32 each) | flags
#
# The flags of each r, in the order of the r values (ascending), are
# (limit + 8) // 8 bytes: one bit per n in [0, limit] in np.packbits order
# (the flag of n in bit 7 - n % 8 of byte n // 8), pad bits zero.  The
# crc32 covers every byte after itself.  The package writes this format
# and reads none of it back.
# ---------------------------------------------------------------------------

_CACHE_MAGIC = b"RFSV2"
_HEAD = 5 + 4 + 8 + 4  # magic, crc32, limit, #r


def _cache_size(limit: int, n_rs: int) -> int:
    return _HEAD + 4 * n_rs + n_rs * _packed_size(limit)


def _write_crc(fh, data, crc: int) -> int:
    """Write ``data`` to ``fh`` and return the crc32 carried on over it."""
    fh.write(data)
    return zlib.crc32(data, crc)


def save_cache(path, limit: int, rs: Iterable[int]) -> list[int]:
    """Write the r-free flags of [0, limit] for each r of ``rs`` to ``path``
    in the binary format, and return #{1 <= n <= limit : n r-free} for each
    r, ascending.

    Raises ValueError, before any file is opened, unless every r and limit
    keep ``_check_count_range``, and ConfigError, before any byte is
    written, if ``path`` holds a file that does not begin with ``RFSV``,
    the magic of every cache version; only those four bytes are read.
    Each window of ``_r_free_windows`` is counted, packed and written as it
    comes, and the crc32 is filled in last, so the save holds one window
    and its packed bytes.  The bytes go to a temporary file in the same
    directory, which replaces ``path`` only once every total has passed
    ``_check_flag_totals``, so no torn or wrong cache is left behind.
    """
    limit = index(limit)
    rs = sorted({_check_count_range(limit, r)[1] for r in rs})
    try:  # the one file the save may replace is a cache of some version
        with open(path, "rb") as fh:
            if fh.read(4) != _CACHE_MAGIC[:4]:
                raise ConfigError(f"{path} exists and is not a sieve cache (it does "
                                  "not begin with RFSV); refusing to overwrite it")
    except FileNotFoundError:
        pass
    tmp = f"{path}.{os.getpid()}.tmp"
    head = [
        np.array(limit, dtype="<u8"),
        np.array(len(rs), dtype="<u4"),
        np.asarray(rs, dtype="<u4"),
    ]
    counts = []
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC + bytes(4))  # the crc32 is filled in below
            crc = 0
            for part in head:
                crc = _write_crc(fh, part, crc)
            for r in rs:
                count = 0
                for _, window in _r_free_windows(limit, r):
                    count += int(np.count_nonzero(window))
                    # every window but the last is a multiple of 8 flags, and
                    # packbits zeroes the pad bits of the last
                    crc = _write_crc(fh, np.packbits(window), crc)
                del window  # the scratch of this r; the next r sieves into its own
                _check_flag_totals([limit], r, [count])
                counts.append(count)
            assert fh.tell() == _cache_size(limit, len(rs)), "cache layout"
            fh.seek(len(_CACHE_MAGIC))
            fh.write(np.array(crc, dtype="<u4").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the replace
            os.unlink(tmp)
    return counts
