"""Averaged worst-case progression errors over a sweep of moduli.

For each sample size x the experiment sums, over all moduli k up to

    K(x) = floor( x^(r/(r+1)) / (log x)^(A + r - 1) ),

the worst |error term| among residues l whose gcd with k is r-free:

    S(x) = sum_{k <= K(x)} max_l |E(x; k, l)|.

The reported trend statistic is S(x) * (log x)^A / x.  All residue classes
of one modulus are counted at once by Mobius inversion over the squarefree
d <= x^(1/r): whole periods of m*d^r mod k are added per coset, and at most
one partial period per d is tallied, so a modulus costs about x^(1/r)
d-terms plus at most one partial period per d, and never reads the r-free
flag table.  The flag table instead gives the total that the classes of
every modulus must sum to, an independent check.  The maximum over l runs
over every admissible class in one numpy pass, with one main term per
divisor g = gcd(l, k), so S(x) is the exact sum.
The moduli are taken in ascending order in one process and S(x) is folded
in that order, so the CSV output is byte-identical for a fixed
configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, SelfCheckError
from .multiplicative import f_value
from .progressions import _int_rth_root, decompose, main_term
from .sieve import SieveTable, is_r_free, trial_factorize

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


def class_counts(table: SieveTable, x: int, r: int, k: int) -> np.ndarray:
    """R(x; k, l) for every l in [0, k), by Mobius inversion over d.

    R(x; k, l) = sum_{d <= x^(1/r)} mu(d) * #{m <= x/d^r : m d^r = l (mod k)}.
    For one d let c = d^r mod k and h = gcd(c, k).  As m runs, m*c mod k
    has period k/h and hits every multiple of h once per period, so the
    whole periods add the same amount to each class l = 0 (mod h); the
    leftover partial period is tallied residue by residue.  Only
    ``table.mu[1 : d_max + 1]`` is read.
    """
    if r not in table.mu_r:
        raise ValueError(f"table was not built with r={r}")
    if not 1 <= x <= table.limit:
        raise ValueError(f"x={x} outside sieve range [1, {table.limit}]")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # int64 throughout: every d^r <= x <= table.limit < 2^32, and m*c < k^2,
    # so no product or partial sum below can overflow
    d_max = _int_rth_root(x, r)
    mu = table.mu[1 : d_max + 1]
    ds = np.flatnonzero(mu) + 1
    signs = mu[ds - 1].astype(np.int64)
    dr = ds**r
    per_d = x // dr  # m values for each d
    c = dr % k
    h = np.gcd(c, k)  # gcd(0, k) = k
    period = k // h
    counts = np.zeros(k, dtype=np.int64)

    # whole periods: one strided add per distinct h
    whole = signs * (per_d // period)
    for hv in np.unique(h):
        counts[::hv] += int(whole[h == hv].sum())

    # partial periods: m = 1 .. per_d mod period, residues (m*c) mod k; the
    # negative-mu terms land in a second block of k bins so one integer
    # bincount carries both signs
    left = per_d % period
    n_left = int(left.sum())
    if n_left:
        owner = np.repeat(np.arange(ds.size), left)
        m = np.arange(n_left) - np.repeat(np.cumsum(left) - left, left) + 1
        bins = (m * c[owner]) % k + k * (signs[owner] < 0)
        tally = np.bincount(bins, minlength=2 * k)
        counts += tally[:k] - tally[k:]
    return counts


def max_error_for_modulus(
    table: SieveTable,
    x: int,
    r: int,
    k: int,
    *,
    expected_total: int | None = None,
) -> tuple[int, float]:
    """(l*, max |E(x; k, l)|) over every admissible residue of one modulus.

    Admissible means gcd(l, k) is r-free.  Ties go to the smallest l.
    ``expected_total`` enables the partition self-check: the class counts
    of one modulus must sum to the count for k = 1.
    """
    counts = class_counts(table, x, r, k)
    if expected_total is not None and int(counts.sum()) != expected_total:
        raise SelfCheckError(
            f"class counts for k={k} sum to {int(counts.sum())}, "
            f"expected {expected_total}"
        )
    fv = f_value(r, k, trial_factorize(k))
    # the main term depends on l only through g = gcd(l, k), so it is
    # evaluated once per divisor g; it is undefined (NaN) where g is not
    # r-free, and those l are masked below every error (l = 1 mod k, with
    # g = 1, always survives)
    g = np.gcd(np.arange(k), k)  # gcd(0, k) = k
    mains = np.full(k + 1, np.nan)  # indexed by g
    for d in np.flatnonzero(np.bincount(g)).tolist():
        if is_r_free(d, r):
            mains[d] = main_term(x, r, k, d % k, fv)
    errs = np.abs(counts - mains[g])
    errs[np.isnan(errs)] = -1.0
    best_l = int(np.argmax(errs))  # the first maximum
    return best_l, float(errs[best_l])


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
            modulus_threshold(x, self.r, self.log_power)  # raises if vacuous


class BvRow(NamedTuple):
    x: int
    r: int
    log_power: float
    modulus_bound: int
    error_sum: float
    normalized: float
    wall_seconds: float


def run_experiment(config: ExperimentConfig, table: SieveTable) -> list[BvRow]:
    """Run the sweep; one row per x, deterministic for a fixed config."""
    config.validate()
    if config.r not in table.mu_r:
        raise ConfigError(f"sieve was not built with r={config.r}")
    if table.limit < max(config.xs):
        raise ConfigError(
            f"sieve limit {table.limit} is below max(xs) = {max(config.xs)}"
        )
    rows = []
    for x in config.xs:
        start = time.perf_counter()
        bound = modulus_threshold(x, config.r, config.log_power)
        total = int(table.mu_r[config.r][1 : x + 1].sum(dtype=np.int64))
        error_sum = 0.0
        for k in range(1, bound + 1):  # ascending-k fold: deterministic float sum
            _, max_e = max_error_for_modulus(
                table, x, config.r, k, expected_total=total
            )
            error_sum += max_e
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


def write_csv(rows: Sequence[BvRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(rows_to_csv(rows))


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


class ZProbeRow(NamedTuple):
    k: int
    l: int
    z: float
    small_sum: int
    large_sum: int
    small_abs_err: float
    large_abs: float
    bound_shape: float
    is_reference_split: bool


def z_sensitivity_probe(
    table: SieveTable,
    x: int,
    r: int,
    pairs: Sequence[tuple[int, int]],
    z_grid: Sequence[float],
) -> list[ZProbeRow]:
    """Decomposition residuals and the combined bound shape across cuts z.

    The reference cut z = x^(1/(r+1)) is always included and flagged.  The
    split identity is re-verified at every grid point.
    """
    reference = x ** (1.0 / (r + 1))
    zs = sorted(set(float(z) for z in z_grid) | {reference})
    rows = []
    for k, l in pairs:
        g = math.gcd(l, k) if l else k
        omega_k = trial_factorize(k).omega
        for z in zs:
            rep = decompose(table, x, r, k, l, z)
            if rep.small_sum + rep.large_sum != rep.count:
                raise SelfCheckError(
                    f"split identity failed at (x={x}, k={k}, l={l}, z={z})"
                )
            shape = 2**omega_k * z + r**omega_k * (
                x / (k * z ** (r - 1)) + x / (g * z**r)
            )
            rows.append(
                ZProbeRow(
                    k=k, l=l, z=z,
                    small_sum=rep.small_sum, large_sum=rep.large_sum,
                    small_abs_err=abs(rep.small_err),
                    large_abs=abs(float(rep.large_sum)),
                    bound_shape=shape,
                    is_reference_split=(z == reference),
                )
            )
    return rows


def z_probe_csv(rows: Sequence[ZProbeRow]) -> str:
    lines = ["k,l,z,small_sum,large_sum,small_abs_err,large_abs,bound_shape,is_reference_split"]
    for row in rows:
        lines.append(
            f"{row.k},{row.l},{row.z!r},{row.small_sum},{row.large_sum},"
            f"{row.small_abs_err!r},{row.large_abs!r},{row.bound_shape!r},"
            f"{int(row.is_reference_split)}"
        )
    return "\n".join(lines) + "\n"
