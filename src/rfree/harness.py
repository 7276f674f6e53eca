"""Averaged worst-case progression errors over a sweep of moduli.

For each sample size x the experiment sums, over all moduli k up to

    K(x) = floor( x^(r/(r+1)) / (log x)^(A + r - 1) ),

the worst |error term| among residues l whose gcd with k is r-free:

    S(x) = sum_{k <= K(x)} max_l |E(x; k, l)|.

The reported trend statistic is S(x) * (log x)^A / x.  All residue classes
of one modulus are counted at once by Mobius inversion over the squarefree
d <= x^(1/r): whole periods of m*d^r mod k are added per coset, and at most
one partial period per d is tallied, so a modulus costs about x^(1/r)
d-terms plus at most one partial period per d.  The d-terms (mu(d), d^r
and x // d^r) are built once per x, by the builder
``progressions._d_terms`` that the split also uses, and shared by every
modulus of that x; the sweep sieves mu only up to (max x)^(1/r) and
holds no table over [1, x].

Only the moduli in (K/2, K] are counted.  Every k <= K/2 divides
k' = k * floor(K/k), which lies in that range, and
R(x; k, l) = sum_j R(x; k', l + j*k) is an exact integer sum, so the
counts of k are those of k' folded onto k classes.  The total that the
classes of a modulus must sum to comes from ``sieve.r_free_counts``, a
segmented sieve of the r-th prime powers that reads no Mobius value, so
it is an independent check; it runs on every counted modulus, and a
folded modulus sums to its k' total by construction.  The maximum over l
runs over every admissible class in one numpy pass, with one main term
per divisor g = gcd(l, k), so S(x) is the exact sum.  The maxima are
taken for k = 1..K in ascending order in one process and S(x) is summed
in that order, so the CSV output is byte-identical for a fixed
configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .arith import trial_factorize
from .errors import ConfigError, ResourceLimitError, SelfCheckError
from .multiplicative import f_value
from .progressions import _d_terms, _main_term, _root_mu
from .sieve import _LIMIT_CEILING, _check_count_range, r_free_counts

CSV_HEADER = "x,r,A,K,S,normalized,wall_seconds"


def modulus_threshold(x: int, r: int, log_power: float) -> int:
    """Largest modulus included at sample size x.

    Natural logarithm throughout.  A threshold below 1 means the requested
    combination is vacuous and is rejected as a configuration error.
    """
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    value = x ** (r / (r + 1)) / math.log(x) ** (log_power + r - 1)
    k = math.floor(value)
    if k < 1:
        raise ConfigError(
            f"threshold {value:.3g} < 1 at x={x}, r={r}, A={log_power}; "
            "use a larger x or a smaller A"
        )
    return k


def _count_classes(terms: tuple[np.ndarray, ...], k: int) -> np.ndarray:
    # int64 throughout: every d^r <= x < 2^32, each count is at most x, and
    # m*c < k * min(k, x), below 2^63 for every k the sweep takes
    # (k <= K(x) < x / log x)
    _, signs, dr, per_d = terms
    c = dr % k
    h = np.gcd(c, k)  # gcd(0, k) = k
    period = k // h
    counts = np.zeros(k, dtype=np.int64)

    # whole periods: summed per h in one pass, then one strided add per h
    by_h = np.zeros(k + 1, dtype=np.int64)
    np.add.at(by_h, h, signs * (per_d // period))
    for hv in np.flatnonzero(by_h).tolist():
        counts[::hv] += by_h[hv]

    # partial periods: m = 1 .. per_d mod period, residues (m*c) mod k; the
    # negative-mu terms land in a second block of k bins so one integer
    # bincount carries both signs
    left = per_d % period
    n_left = int(left.sum())
    if n_left:
        m = np.arange(1, n_left + 1) - np.repeat(np.cumsum(left) - left, left)
        bins = (m * np.repeat(c, left)) % k + np.repeat(k * (signs < 0), left)
        tally = np.bincount(bins, minlength=2 * k)
        counts += tally[:k] - tally[k:]
    return counts


def class_counts(x: int, r: int, k: int) -> np.ndarray:
    """R(x; k, l) for every l in [0, k), by Mobius inversion over d.

    R(x; k, l) = sum_{d <= x^(1/r)} mu(d) * #{m <= x/d^r : m d^r = l (mod k)}.
    For one d let c = d^r mod k and h = gcd(c, k).  As m runs, m*c mod k
    has period k/h and hits every multiple of h once per period, so the
    whole periods add the same amount to each class l = 0 (mod h); the
    leftover partial period is tallied residue by residue.  mu is sieved
    up to x^(1/r) for the call.  The sweep shares one set of d-terms
    across the moduli of an x and folds most moduli down from a multiple;
    this per-modulus call is the oracle the fold is tested against.
    """
    _check_count_range(x, r)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _count_classes(_d_terms(_root_mu(x, r), x, r), k)


def _check_partition(k: int, counts: np.ndarray, expected_total: int) -> None:
    if int(counts.sum()) != expected_total:
        raise SelfCheckError(
            f"class counts for k={k} sum to {int(counts.sum())}, "
            f"expected {expected_total}"
        )


def _max_error(x: int, r: int, k: int, counts: np.ndarray) -> tuple[int, float]:
    fact = trial_factorize(k)
    fv = f_value(r, k)
    # the main term depends on l only through g = gcd(l, k), so it is
    # evaluated once per divisor g; it is undefined (NaN) where g is not
    # r-free, and those l are masked below every error (l = 1 mod k, with
    # g = 1, always survives).  g | k, so only the primes of k can put an
    # r-th power in g.
    g = np.gcd(np.arange(k), k)  # gcd(0, k) = k
    mains = np.full(k + 1, np.nan)  # indexed by g
    for d in np.flatnonzero(np.bincount(g)).tolist():
        if all(d % p**r for p, _ in fact.factors):
            mains[d] = _main_term(x, r, fact, fv, d % k)
    errs = np.abs(counts - mains[g])
    errs[np.isnan(errs)] = -1.0
    best_l = int(np.argmax(errs))  # the first maximum
    return best_l, float(errs[best_l])


def _sweep_counts(
    mu: np.ndarray, x: int, r: int, bound: int, total: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(k, class counts of k) for k = 1..bound, in ascending order.

    ``mu`` is the Mobius function indexed by n, up to at least x^(1/r).
    Only the moduli in (bound/2, bound] are counted, each checked against
    ``total``; every smaller k is folded down from k * floor(bound / k).
    """
    terms = _d_terms(mu, x, r)
    counted = {}
    for k in range(bound // 2 + 1, bound + 1):
        counts = _count_classes(terms, k)
        _check_partition(k, counts, total)
        counted[k] = counts
    for k in range(1, bound + 1):
        multiple = k * (bound // k)
        yield k, counted[multiple].reshape(multiple // k, k).sum(axis=0)


@dataclass
class ExperimentConfig:
    """Sweep settings: r, the log-power A, the sample sizes and the timing."""

    r: int
    log_power: float
    xs: tuple[int, ...]
    timing: str = "wall"  # "none" zeroes wall_seconds for reproducible bytes

    def __post_init__(self):
        self.xs = tuple(int(x) for x in self.xs)

    def validate(self) -> None:
        if self.r < 2:
            raise ConfigError(f"r must be >= 2, got {self.r}")
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
    partition totals' sieve and the class counts of the moduli.
    """
    config.validate()
    mu = _root_mu(max(config.xs), config.r)
    totals = r_free_counts(config.xs, config.r)
    rows = []
    for x, total in zip(config.xs, totals):
        start = time.perf_counter()
        bound = modulus_threshold(x, config.r, config.log_power)
        error_sum = 0.0
        for k, counts in _sweep_counts(mu, x, config.r, bound, total):
            error_sum += _max_error(x, config.r, k, counts)[1]  # ascending k
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
