"""Reference values and output checks for the benchmark.

Nothing here imports ``rfree``.  Every expected value is recomputed by a
method of its own (trial division, Mobius inversion, the Dirichlet
hyperbola, exhaustive enumeration), so that a fault in the program cannot
hide in the check of its output.  Each ``check_*`` function raises
``CheckFailed`` on the first disagreement.
"""

from __future__ import annotations

import math
import re

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its reference value."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Elementary number theory by trial division
# ---------------------------------------------------------------------------


def prime_factors(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    factors = prime_factors(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def totient(n: int) -> int:
    out = n
    for p, _ in prime_factors(n):
        out = out // p * (p - 1)
    return out


def is_r_free(n: int, r: int) -> bool:
    return all(e < r for _, e in prime_factors(n))


def int_root(n: int, r: int) -> int:
    """floor(n ** (1/r)) in exact integer arithmetic."""
    root = int(round(n ** (1.0 / r)))
    while root > 0 and root**r > n:
        root -= 1
    while (root + 1) ** r <= n:
        root += 1
    return root


def r_free_count(n: int, r: int) -> int:
    """#{m <= n : m r-free} = sum over d of mu(d) * floor(n / d^r)."""
    return sum(mobius(d) * (n // d**r) for d in range(1, int_root(n, r) + 1))


# ---------------------------------------------------------------------------
# bv-sum: S(x) = sum_{k <= K} max_l |R(x; k, l) - main(x; k, l)|, r = 2
# ---------------------------------------------------------------------------


def modulus_bound(x: int, r: int, log_power: float) -> int:
    return math.floor(x ** (r / (r + 1)) / math.log(x) ** (log_power + r - 1))


def class_counts_mobius(x: int, k: int, d: np.ndarray, mu: np.ndarray, r: int) -> np.ndarray:
    """R(x; k, l) for all l in [0, k) by Mobius inversion over d <= x^(1/r).

    R = sum_d mu(d) #{m <= x/d^r : m d^r = l (mod k)}.  With h = gcd(d^r, k)
    the residues m d^r (mod k) run once through the multiples of h every
    P = k/h steps, so whole periods add to every multiple of h and only the
    last partial period is enumerated.
    """
    dr = d**r
    c = dr % k
    h = np.gcd(c, k)
    period = k // h
    m_max = x // dr
    whole, part = np.divmod(m_max, period)
    counts = np.zeros(k, dtype=np.int64)
    for hv in np.unique(h):
        sel = h == hv
        counts[::hv] += int(np.dot(mu[sel], whole[sel]))
    idx = np.repeat(np.arange(d.size), part)
    m = np.arange(idx.size) - np.repeat(np.cumsum(part) - part, part) + 1
    res = (m * c[idx]) % k
    sign = mu[idx]
    counts += np.bincount(res[sign > 0], minlength=k)
    counts -= np.bincount(res[sign < 0], minlength=k)
    return counts


def bv_reference(xs: list[int], log_power: float) -> dict[int, tuple[int, float, float]]:
    """{x: (K, S, tolerance on S)} for r = 2, computed without the sieve.

    The main term uses f_2(k) = (6/pi^2) prod_{p | k} (1 - p^-2)^-1.  Each
    main term is at most x/k, and the program evaluates 1/zeta(2) to a
    relative 1e-13, so the two values of S may differ by about
    1e-13 * x * H(K); the tolerance allows ten times that.
    """
    r = 2
    d_all = np.arange(1, int_root(max(xs), r) + 1, dtype=np.int64)
    mu_all = np.array([mobius(int(v)) for v in d_all], dtype=np.int64)
    keep = mu_all != 0
    d_sf, mu_sf = d_all[keep], mu_all[keep]
    out = {}
    for x in xs:
        kmax = modulus_bound(x, r, log_power)
        sel = d_sf**r <= x
        d, mu = d_sf[sel], mu_sf[sel]
        total = r_free_count(x, r)
        error_sum = 0.0
        for k in range(1, kmax + 1):
            counts = class_counts_mobius(x, k, d, mu, r)
            _require(int(counts.sum()) == total, f"reference partition at x={x} k={k}")
            primes = [p for p, _ in prime_factors(k)]
            f2 = 6.0 / math.pi**2
            for p in primes:
                f2 /= 1.0 - p**-2.0
            phi_k = totient(k)
            best = 0.0
            for g in range(1, k + 1):
                if k % g or not is_r_free(g, r):
                    continue
                main = (x / k) * (phi_k / (g * totient(k // g))) * f2
                ls = np.arange(0, k, g)
                ls = ls[np.gcd(ls, k) == g]  # gcd(0, k) = k
                best = max(best, float(np.max(np.abs(counts[ls] - main))))
            error_sum += best
        harmonic = sum(1.0 / k for k in range(1, kmax + 1))
        out[x] = (kmax, error_sum, 1e-12 * x * harmonic)
    return out


def parse_bv_csv(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    _require(bool(lines) and lines[0] == "x,r,A,K,S,normalized,wall_seconds",
             f"bv-sum CSV header: {lines[:1]}")
    return [ln.split(",") for ln in lines[1:]]


def check_bv_csv(text: str, reference, log_power: float) -> None:
    rows = parse_bv_csv(text)
    _require(len(rows) == len(reference), f"bv-sum printed {len(rows)} rows")
    for row, (x, (kmax, s_ref, tol)) in zip(rows, sorted(reference.items())):
        _require(len(row) == 7, f"bv-sum row {row}")
        _require(int(row[0]) == x and int(row[1]) == 2, f"bv-sum row {row}: x or r")
        _require(float(row[2]) == log_power, f"bv-sum row {row}: A")
        _require(int(row[3]) == kmax, f"K at x={x}: printed {row[3]}, expected {kmax}")
        s = float(row[4])
        _require(abs(s - s_ref) <= tol,
                 f"S at x={x}: printed {s!r}, reference {s_ref!r} (tolerance {tol:.3g})")
        norm = s_ref * math.log(x) ** log_power / x
        _require(math.isclose(float(row[5]), norm, rel_tol=1e-9, abs_tol=0.0),
                 f"normalized at x={x}: printed {row[5]}, expected {norm!r}")
        _require(float(row[6]) >= 0.0, f"wall_seconds at x={x}: {row[6]}")


def check_same_except_wall(serial_text: str, pool_text: str) -> None:
    a, b = parse_bv_csv(serial_text), parse_bv_csv(pool_text)
    _require([r[:6] for r in a] == [r[:6] for r in b],
             f"1-worker and 2-worker CSVs differ: {a} vs {b}")


# ---------------------------------------------------------------------------
# sieve: r-free counts up to the limit
# ---------------------------------------------------------------------------

_SIEVE_LINE = re.compile(r"^r=(\d+): (\d+) r-free integers <= (\d+)$", re.M)


def check_sieve_output(text: str, limit: int, expected: dict[int, int]) -> dict[int, int]:
    got = {int(r): int(c) for r, c, lim in _SIEVE_LINE.findall(text) if int(lim) == limit}
    _require(got == expected, f"sieve counts {got}, expected {expected}")
    return got


def truncated_load_ok(exit_code: int, text: str, true_count: int) -> bool:
    """Whether a command handed a damaged cache behaved acceptably.

    It must refuse the file (nonzero exit, no count printed) or print the
    true count.  Exiting 0 with another count is the silent wrong answer.
    """
    lines = [ln.split(",") for ln in text.splitlines() if ln.strip()]
    count = None
    if len(lines) >= 2 and "R" in lines[0]:
        count = int(lines[1][lines[0].index("R")])
    if exit_code != 0:
        return count is None
    return count == true_count


# ---------------------------------------------------------------------------
# verify: verify-lemmas, tau-sum, residues
# ---------------------------------------------------------------------------

_LEMMAS_LINE = re.compile(
    r"^trials=(\d+) failures=(\d+) max_small_residual=(\S+) max_large_ratio=(\S+)$", re.M
)


def check_lemmas(exit_code: int, text: str, trials: int) -> None:
    m = _LEMMAS_LINE.search(text)
    _require(m is not None, f"verify-lemmas summary missing: {text[-200:]!r}")
    _require(int(m.group(1)) == trials, f"verify-lemmas ran {m.group(1)} trials")
    _require(int(m.group(2)) == 0, f"verify-lemmas reported failures={m.group(2)}")
    _require(exit_code == 0, f"verify-lemmas exited {exit_code}")


def tau3_sum(x: int) -> int:
    """sum_{n <= x} tau_3(n) = #{(a, b, c) : abc <= x}, by the hyperbola.

    Counts a <= b <= c and weights each by its number of orderings.
    """
    total = 0
    a = 1
    while a**3 <= x:
        b = np.arange(a, math.isqrt(x // a) + 1, dtype=np.int64)
        c_over = (x // a) // b - b  # triples with c > b
        eq_ab = b == a
        total += int(np.sum(np.where(eq_ab, 1, 3)))  # c == b
        total += int(np.sum(np.where(eq_ab, 3, 6) * c_over))
        a += 1
    return total


def check_tau_sum(text: str, r: int, expected: dict[int, int]) -> None:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    _require(lines[:1] == ["x,sum,ratio"], f"tau-sum header: {lines[:1]}")
    rows = [ln.split(",") for ln in lines[1:]]
    _require([int(row[0]) for row in rows] == sorted(expected), f"tau-sum x column {rows}")
    for x, total, ratio in rows:
        x, total = int(x), int(total)
        _require(total == expected[x], f"tau-sum at x={x}: {total}, hyperbola {expected[x]}")
        want = expected[x] / (x * math.log(x) ** (r - 1))
        _require(math.isclose(float(ratio), want, rel_tol=1e-12),
                 f"tau-sum ratio at x={x}: {ratio}, expected {want!r}")


def residue_maxima(r: int, s_max: int) -> list[tuple[int, int, int, float]]:
    """(s, a, count, count / r^omega(s)) with a the smallest unit attaining
    the largest count of d^r = a (mod s) over d in [0, s), by enumeration."""
    out = []
    for s in range(1, s_max + 1):
        d = np.arange(s, dtype=np.int64)
        power = np.ones(s, dtype=np.int64) % s
        for _ in range(r):
            power = power * d % s
        hist = np.bincount(power, minlength=s)
        units = np.nonzero(np.gcd(d, s) == 1)[0]
        best = int(hist[units].max())
        a = int(units[hist[units] == best][0])
        out.append((s, a, best, best / float(r ** len(prime_factors(s)))))
    return out


_RESIDUE_SUMMARY = re.compile(r"^# max ratio (\S+) at a=(\d+) s=(\d+) \(r=(\d+)\)$")


def check_residues(text: str, r: int, expected) -> None:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    _require(lines[:1] == ["s,a,count,ratio"], f"residues header: {lines[:1]}")
    body = lines[1:-1]
    _require(len(body) == len(expected), f"residues printed {len(body)} rows")
    best = None
    for line, (s, a, count, ratio) in zip(body, expected):
        ps, pa, pc, pr = line.split(",")
        _require((int(ps), int(pc)) == (s, count),
                 f"residues s={ps}: count {pc}, exhaustive count {count}")
        _require(int(pa) == a, f"residues s={s}: a={pa}, smallest maximising unit is {a}")
        _require(math.isclose(float(pr), ratio, rel_tol=1e-12),
                 f"residues s={s}: ratio {pr}, expected {ratio!r}")
        if best is None or float(pr) > best[0]:
            best = (float(pr), int(pa), int(ps))
    m = _RESIDUE_SUMMARY.match(lines[-1])
    _require(m is not None, f"residues summary line: {lines[-1]!r}")
    got = (float(m.group(1)), int(m.group(2)), int(m.group(3)))
    _require(int(m.group(4)) == r and got == best,
             f"residues summary {got}, recomputed from rows {best}")
