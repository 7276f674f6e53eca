"""Averaged worst-case progression errors over a sweep of moduli.

For each sample size x the experiment sums, over all moduli k up to

    K(x) = floor( x^(r/(r+1)) / (log x)^(A + r - 1) ),

the worst |error term| among residues l whose gcd with k is r-free:

    S(x) = sum_{k <= K(x)} max_l |E(x; k, l)|.

The reported trend statistic is S(x) * (log x)^A / x.  All residue classes
of one modulus are counted at once by Mobius inversion over the squarefree
d <= x^(1/r): whole periods of m*d^r mod k are added per coset, and of the
one partial period per d only its shorter side is tallied (when more than
half a period is left, one more whole period is added and the rest taken
back), so a modulus costs about x^(1/r) d-terms plus at most half a period
per d.  The partial-period entries are int32 while k*k < 2^31 and are
tallied in blocks of at most 2^18, so a modulus holds one block of entries
at a time, not one entry per m.  The d-terms (mu(d), d^r and x // d^r)
are built once per x, by the builder ``sieve._d_terms`` that the split
also uses, and shared by every modulus of that x; the sweep sieves mu
only up to (max x)^(1/r) and holds no table over [1, x].  The main terms
come from ``multiplicative._main_term``, so the sweep loads no
``rfree.progressions``.

Only the moduli in (K/2, K] are counted.  Every k <= K/2 divides
k' = k * floor(K/k), which lies in that range, and
R(x; k, l) = sum_j R(x; k', l + j*k) is an exact integer sum, so the
counts of k are those of k' folded onto k classes.  The total that the
classes of a modulus must sum to comes from ``sieve.r_free_counts``, a
segmented sieve of the r-th prime powers that reads no Mobius value, so
it is an independent check; it runs on every counted modulus, and a
folded modulus sums to its k' total by construction.  Each counted k' is
folded onto every k that folds from it as soon as it is counted, and its
counts are then dropped.  The folded counts of consecutive moduli are
held until they make a block of 2^14 classes, and the maximum over l
runs over every admissible class of a block in one numpy pass, with one
main term per r-free divisor g = gcd(l, k), so S(x) is the exact sum.
One maximum is kept per k and S(x) is summed in ascending k at the end,
so the CSV output is byte-identical for a fixed configuration.
"""

from __future__ import annotations

import math
import time
from operator import index
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .arith import _LIMIT_CEILING, _R_CEILING, trial_factorize
from .errors import ConfigError, ResourceLimitError, SelfCheckError
from .multiplicative import _main_term, f_value
from .sieve import _check_count_range, _d_terms, _root_mu, r_free_counts

CSV_HEADER = "x,r,A,K,S,normalized,wall_seconds"
# the partial-period entries one bincount tallies; a block is cut on d
# boundaries, and one d brings at most k/2 < 2^18 entries for every k the
# sweep takes, so a block holds at most 2^18 entries there
_BLOCK = 1 << 18
# the classes whose maxima one numpy pass takes, over consecutive moduli;
# about K^2/2 classes make up one x
_MAXIMA_BLOCK = 1 << 14


def modulus_threshold(x: int, r: int, log_power: float) -> int:
    """Largest modulus included at sample size x.

    Natural logarithm throughout.  A threshold below 1 means the requested
    combination is vacuous and is rejected as a configuration error.
    """
    x, r = index(x), index(r)
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    try:
        value = x ** (r / (r + 1)) / math.log(x) ** (log_power + r - 1)
    except OverflowError:  # the divisor passes every float: the quotient is 0
        value = 0.0
    k = math.floor(value)
    if k < 1:
        raise ConfigError(
            f"threshold {value:.3g} < 1 at x={x}, r={r}, A={log_power}; "
            "use a larger x or a smaller A"
        )
    return k


def _count_classes(terms: tuple[np.ndarray, ...], k: int) -> np.ndarray:
    # the counts are int64: each is at most x < 2^32.  The whole periods are
    # gathered as float64 bincount weights, integers of size at most
    # sum_d x/d^r < 2x < 2^53, so every partial sum is exact.  A partial
    # period has m <= period <= k and c < k, so m*c < k^2, and every bin is
    # below 2k: the entries fit int32 when k*k < 2^31 (k <= 46340).
    # ExperimentConfig admits K up to about 1.2e5 at x just below 2^32 when
    # A is small, and those moduli take int64
    _, signs, dr, per_d = terms
    dtype = np.int32 if k * k < 2**31 else np.int64
    c = dr % k
    # h = gcd(c, k) from a table over the k residues: at r = 2 there are
    # more d-terms than residues for the sweep's usual A, and a gcd costs
    # more than a lookup
    h = np.gcd(np.arange(k), k)[c]  # gcd(0, k) = k
    period = k // h
    whole, left = np.divmod(per_d, period)
    # tally the shorter side of each partial period: when 2*left > period,
    # add one more whole period and take back m in (left, period]
    long = 2 * left > period
    whole += long

    # whole periods: summed per h in one pass, then one strided add per h
    counts = np.zeros(k, dtype=np.int64)
    by_h = np.bincount(h, weights=signs * whole, minlength=k + 1)
    for hv in np.flatnonzero(by_h).tolist():
        counts[::hv] += int(by_h[hv])

    # partial periods: m = start .. start + n - 1, residues (m*c) mod k; the
    # entries taken back land in a second block of k bins, so one integer
    # tally carries both signs
    n = np.where(long, period - left, left)
    start = np.where(long, left + 1, 1)
    base = np.where((signs > 0) != long, 0, k)
    tally = _tally(c.astype(dtype), start, n, base.astype(dtype), k)
    counts += tally[:k] - tally[k:]
    return counts


def _tally(
    c: np.ndarray, start: np.ndarray, n: np.ndarray, base: np.ndarray, k: int
) -> np.ndarray:
    """Histogram over [0, 2k) of base + (m*c mod k), for m = start ..
    start + n - 1 of each term, in blocks of at most ``_BLOCK`` entries cut
    on term boundaries (a longer term takes a block to itself)."""
    tally = np.zeros(2 * k, dtype=np.int64)
    ends = np.cumsum(n)
    lo = 0
    while lo < n.size:
        first = int(ends[lo] - n[lo])  # entries before this block
        hi = max(lo + 1, int(np.searchsorted(ends, first + _BLOCK, side="right")))
        # entry j of the block has m = j + start - (the block's entries
        # before its term)
        run = n[lo:hi]
        m = np.arange(int(ends[hi - 1]) - first, dtype=c.dtype)
        shift = start[lo:hi] - (ends[lo:hi] - run - first)
        m += np.repeat(shift.astype(c.dtype), run)
        m *= np.repeat(c[lo:hi], run)
        m -= m // k * k  # m mod k: a floor division by a scalar is faster than %
        m += np.repeat(base[lo:hi], run)
        tally += np.bincount(m, minlength=2 * k)
        lo = hi
    return tally


def class_counts(x: int, r: int, k: int) -> np.ndarray:
    """R(x; k, l) for every l in [0, k), by Mobius inversion over d.

    R(x; k, l) = sum_{d <= x^(1/r)} mu(d) * #{m <= x/d^r : m d^r = l (mod k)}.
    For one d let c = d^r mod k and h = gcd(c, k).  As m runs, m*c mod k
    has period k/h and hits every multiple of h once per period, so the
    whole periods add the same amount to each class l = 0 (mod h); the
    shorter side of the leftover partial period is tallied residue by
    residue.  mu is sieved up to x^(1/r) for the call.  The sweep shares
    one set of d-terms across the moduli of an x and folds most moduli
    down from a multiple; this per-modulus call is the oracle the fold is
    tested against.
    """
    x, r = _check_count_range(x, r)
    k = index(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _count_classes(_d_terms(_root_mu(x, r), x, r), k)


def _check_partition(k: int, counts: np.ndarray, expected_total: int) -> None:
    if int(counts.sum()) != expected_total:
        raise SelfCheckError(
            f"class counts for k={k} sum to {int(counts.sum())}, "
            f"expected {expected_total}"
        )


def _block_maxima(
    x: int, r: int, block: Sequence[tuple[int, np.ndarray]]
) -> list[tuple[int, float]]:
    """(l*, max_l |E(x; k, l)|) for each (k, class counts of k) of block,
    l* the first maximum, in one numpy pass over the classes of every k.

    The main term depends on l only through g = gcd(l, k), so it is taken
    once per divisor g of k; it is undefined (NaN) where g is not r-free,
    and those l are masked below every error (l = 1 mod k, with g = 1,
    always survives).  Each k's table of main terms sits at slots
    first + 1 .. first + k, first being where its classes start, so the
    tables of a block do not overlap.
    """
    sizes = np.array([k for k, _ in block])
    first = np.cumsum(sizes) - sizes
    start = np.repeat(first, sizes)
    g = np.gcd(np.arange(start.size) - start, np.repeat(sizes, sizes))  # gcd(0, k) = k
    slots, mains = [], []
    for (k, _), base in zip(block, first.tolist()):
        fact = trial_factorize(k)
        fv = f_value(r, k)
        divisors = [1]  # the r-free divisors of k
        for p, e in fact.factors:
            divisors = [d * p**i for d in divisors for i in range(min(e, r - 1) + 1)]
        for d in divisors:
            slots.append(base + d)
            mains.append(_main_term(x, r, fact, fv, d % k))
    table = np.full(start.size + 1, np.nan)
    table[slots] = mains
    errs = np.abs(np.concatenate([counts for _, counts in block]) - table[start + g])
    errs[np.isnan(errs)] = -1.0
    best = np.maximum.reduceat(errs, first)
    hits = np.flatnonzero(errs == np.repeat(best, sizes))
    l_star = hits[np.searchsorted(hits, first)] - first
    return list(zip(l_star.tolist(), best.tolist()))


def _blocks(
    pairs: Iterator[tuple[int, np.ndarray]], size: int
) -> Iterator[list[tuple[int, np.ndarray]]]:
    """The (k, counts) pairs in lists of at least ``size`` classes each (the
    last may hold fewer), so at most size + max k classes are held."""
    block, held = [], 0
    for k, counts in pairs:
        block.append((k, counts))
        held += k
        if held >= size:
            yield block
            block, held = [], 0
    if block:
        yield block


def _sweep_counts(
    mu: np.ndarray, x: int, r: int, bound: int, total: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(k, class counts of k) for every k = 1..bound, each once.

    ``mu`` is the Mobius function indexed by n, up to at least x^(1/r).
    Only the moduli k' in (bound/2, bound] are counted, in ascending order,
    each checked against ``total``; right after k' come its folds, every k
    with k * floor(bound / k) = k' in ascending order (k' itself last), and
    then its counts are dropped.
    """
    terms = _d_terms(mu, x, r)
    half = bound // 2
    folds: list[list[int]] = [[] for _ in range(bound - half)]  # by k' - half - 1
    for k in range(1, bound + 1):
        folds[k * (bound // k) - half - 1].append(k)
    for counted, fold in zip(range(half + 1, bound + 1), folds):
        counts = _count_classes(terms, counted)
        _check_partition(counted, counts, total)
        for k in fold:
            yield k, counts.reshape(counted // k, k).sum(axis=0)


class _ExperimentFields(NamedTuple):
    r: int
    log_power: float
    xs: tuple[int, ...]
    timing: str = "wall"  # "none" zeroes wall_seconds for reproducible bytes


class ExperimentConfig(_ExperimentFields):
    """Sweep settings: r, the log-power A, the sample sizes and the timing.

    r and each x go through ``operator.index``, except that an x may be a
    whole float (1e4); any other value raises TypeError, so no x is truncated.
    """

    __slots__ = ()

    def __new__(cls, r: int, log_power: float, xs, timing: str = "wall"):
        xs = tuple(int(x) if isinstance(x, float) and x.is_integer() else index(x) for x in xs)
        return super().__new__(cls, index(r), log_power, xs, timing)

    def validate(self) -> None:
        if self.r < 2:
            raise ConfigError(f"r must be >= 2, got {self.r}")
        if self.r >= _R_CEILING:
            raise ConfigError(f"r must be below 64, got {self.r}: 2**r exceeds every x")
        if not self.log_power > 0:
            raise ConfigError(f"A must be > 0, got {self.log_power}")
        if not self.xs:
            raise ConfigError("xs must be nonempty")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ConfigError(f"xs must be strictly increasing, got {self.xs}")
        if self.timing not in ("wall", "none"):
            raise ConfigError(f"timing must be 'wall' or 'none', got {self.timing}")
        for x in self.xs:
            if x < 3:
                raise ConfigError(f"each x must be >= 3, got {x}")
            if x >= _LIMIT_CEILING:
                raise ResourceLimitError(
                    f"x={x} is not below 2**32, the largest x the sweep takes "
                    "(its cost grows as about x^(3/2))"
                )
            modulus_threshold(x, self.r, self.log_power)  # raises if vacuous


class BvRow(NamedTuple):
    x: int
    r: int
    log_power: float
    modulus_bound: int
    error_sum: float
    normalized: float
    wall_seconds: float


def run_experiment(config: ExperimentConfig) -> list[BvRow]:
    """Run the sweep; one row per x, deterministic for a fixed config.

    Memory is O(sqrt(max x)): mu up to (max x)^(1/r), one window of the
    partition totals' sieve, the class counts of one counted modulus, one
    block of partial-period entries, one block of folded counts and one
    maximum per modulus.
    """
    config.validate()
    mu = _root_mu(max(config.xs), config.r)
    totals = r_free_counts(config.xs, config.r)
    rows = []
    for x, total in zip(config.xs, totals):
        start = time.perf_counter()
        bound = modulus_threshold(x, config.r, config.log_power)
        maxima = [0.0] * (bound + 1)  # indexed by k
        swept = _sweep_counts(mu, x, config.r, bound, total)
        for block in _blocks(swept, _MAXIMA_BLOCK):
            for (k, _), (_, error) in zip(block, _block_maxima(x, config.r, block)):
                maxima[k] = error
        error_sum = 0.0
        for value in maxima[1:]:  # ascending k, so the bytes do not move
            error_sum += value
        normalized = error_sum * math.log(x) ** config.log_power / x
        wall = time.perf_counter() - start if config.timing == "wall" else 0.0
        rows.append(
            BvRow(
                x=x, r=config.r, log_power=config.log_power,
                modulus_bound=bound, error_sum=error_sum,
                normalized=normalized, wall_seconds=wall,
            )
        )
    return rows


def rows_to_csv(rows: Sequence[BvRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.x},{row.r},{row.log_power!r},{row.modulus_bound},"
            f"{row.error_sum!r},{row.normalized!r},{row.wall_seconds:.6f}"
        )
    return "\n".join(lines) + "\n"


def write_plot(rows: Sequence[BvRow], path) -> None:
    """Normalized trend against x on a log axis, as a hand-built SVG file."""
    xs = [row.x for row in rows]
    ys = [row.normalized for row in rows]
    w, h, m = 640, 400, 60
    lx = [math.log10(x) for x in xs]
    x0, x1 = min(lx), max(lx) or 1.0
    y1 = max(ys) or 1.0
    if x1 == x0:
        x1 = x0 + 1.0
    px = [m + (w - 2 * m) * (v - x0) / (x1 - x0) for v in lx]
    py = [h - m - (h - 2 * m) * (v / y1) for v in ys]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{m}" y1="{h-m}" x2="{w-m}" y2="{h-m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h-m}" stroke="black"/>',
        '<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="'
        + " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        + '"/>',
    ]
    for a, b, xv in zip(px, py, xs):
        parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="3" fill="steelblue"/>')
        parts.append(
            f'<text x="{a:.2f}" y="{h-m+16}" font-size="10" text-anchor="middle">'
            f"{xv:g}</text>"
        )
    parts.append(
        f'<text x="{m-8}" y="{m}" font-size="10" text-anchor="end">{y1:.3g}</text>'
    )
    parts.append(
        f'<text x="{w//2}" y="{h-10}" font-size="12" text-anchor="middle">x '
        f"(log scale)</text>"
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
