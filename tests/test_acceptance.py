"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import r_free_flags, run_rfree
from rfree import (
    ExperimentConfig,
    count_r_free_in_progression,
    count_solutions,
    counts_vector,
    decompose,
    is_r_free,
    modulus_threshold,
    mu_r_direct,
    per_modulus_maxima,
    run_experiment,
    tau_partial_sum_check,
    tau_value,
    trial_factorize,
)


def _report(num: int, name: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num} ({name}): PASS {detail}".rstrip())


def test_criterion_1_sieve_matches_direct_mobius_sum():
    start = time.perf_counter()
    for r in (2, 3, 4):
        flags = r_free_flags(100_000, r)
        for n in range(1, 100_001):
            if mu_r_direct(n, r) != flags[n]:
                pytest.fail(f"mu_r mismatch at n={n}, r={r}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    _report(1, "sieve/formula equivalence", f"(n <= 1e5, r in 2..4, {elapsed:.1f}s)")


def test_criterion_2_progression_oracle():
    x_max, k_max = 10_000, 30
    rng = random.Random(1002)
    checked_ops = 0
    for r in (2, 3):
        oracle = np.array([0] + [is_r_free(n, r) for n in range(1, x_max + 1)],
                          dtype=np.int64)
        flags = r_free_flags(x_max, r).astype(np.int64)
        for k in range(1, k_max + 1):
            for l in range(k):
                start = l if l else k
                idx = np.arange(start, x_max + 1, k)
                # cumulative equality covers every x <= x_max at once:
                # counts only change at class members
                assert np.array_equal(
                    np.cumsum(oracle[idx]), np.cumsum(flags[idx])
                ), (r, k, l)
        # exercise the scan operation itself on a random sample
        for _ in range(150):
            x = rng.randint(1, x_max)
            k = rng.randint(1, k_max)
            l = rng.randrange(k)
            start = l if l else k
            brute = int(oracle[start : x + 1 : k].sum())
            got = count_r_free_in_progression(x, r, k, l)
            assert got == brute, (r, x, k, l)
            checked_ops += 1
    _report(2, "progression oracle",
            f"(all x <= 1e4, k <= 30, all l, r in 2..3; {checked_ops} direct calls)")


def test_criterion_3_decomposition_exactness():
    rng = random.Random(1003)
    done = 0
    while done < 1000:
        r = rng.choice((2, 3))
        x = rng.randint(10, 1_000_000)
        k = rng.randint(1, 200)
        l = rng.randrange(k)
        g = math.gcd(l, k) if l else k
        if not is_r_free(g, r):
            continue
        z = rng.uniform(1.0, max(1.0, (x / g) ** (1 / r)))
        rep = decompose(x, r, k, l, z)
        assert rep.small_sum + rep.large_sum == rep.count, (x, r, k, l, z)
        done += 1
    _report(3, "decomposition exactness", "(1000 random splits, zero tolerance)")


def test_criterion_4_residue_count_oracle():
    start = time.perf_counter()
    rng = random.Random(1004)
    for r in (2, 3, 4):
        maxima = list(per_modulus_maxima(r, 2000))
        for s in range(1, 2001):
            crt = counts_vector(r, s)
            # independent oracle: histogram of d^r mod s over d in [0, s)
            d = np.arange(s, dtype=np.int64)
            acc = np.ones(s, dtype=np.int64)
            base = d.copy()
            exp = r
            while exp:
                if exp & 1:
                    acc = acc * base % s
                base = base * base % s
                exp >>= 1
            brute = np.bincount(acc, minlength=s)
            assert np.array_equal(crt, brute), (r, s)
            units = np.flatnonzero(np.gcd(d, s) == 1)
            best = int(units[np.argmax(crt[units])])  # first maximizing unit
            assert int(crt[best]) <= 2 * r ** trial_factorize(s).omega, (r, s)
            row = maxima[s - 1]
            assert (row.s, row.a, row.count) == (s, best, int(crt[best])), (r, s)
    # the scalar operation agrees with the vector path
    for _ in range(2000):
        s = rng.randint(1, 2000)
        a = rng.randrange(s)
        r = rng.choice((2, 3, 4))
        assert count_solutions(r, a, s).count == int(counts_vector(r, s)[a])
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
    _report(4, "residue-count oracle",
            f"(all s <= 2000, all a, r in 2..4; unit bound 2*r^omega; "
            f"per-modulus maxima; {elapsed:.1f}s)")


def test_criterion_5_divisor_sum_bound():
    details = []
    for r in (2, 3):
        rows = tau_partial_sum_check(r, [10**4, 10**5, 10**6])
        ratios = [row.ratio for row in rows]
        assert all(ratio > 0 for ratio in ratios)
        assert all(ratio < 10.0 for ratio in ratios)
        for a, b in zip(ratios, ratios[1:]):
            assert abs(b / a - 1.0) < 0.25, (r, ratios)
        details.append(f"r={r}: " + ",".join(f"{v:.4f}" for v in ratios))
    for r in (2, 3, 4):
        for k in range(1, 100_001):
            assert r ** trial_factorize(k).omega <= tau_value(r, k), (r, k)
    _report(5, "divisor-sum bound", "(" + " | ".join(details) + "; r^omega <= tau_r exact)")


def test_criterion_6_known_density():
    # independent inclusion-exclusion oracle, trial-division Mobius only
    def mobius(n):
        if n == 1:
            return 1
        sign, m, p = 1, n, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if m > 1 else sign

    oracle = sum(mobius(d) * (10**6 // (d * d)) for d in range(1, 1001))
    assert oracle == 607926
    sieved = int(r_free_flags(10**6, 2)[1:].sum(dtype=np.int64))
    assert sieved == 607926
    _report(6, "known density", "(squarefree count at 1e6 = 607926, exact)")


def test_criterion_7_averaged_error_trend():
    start = time.perf_counter()
    config = ExperimentConfig(r=2, log_power=1.0, xs=(10**4, 10**5, 10**6, 10**7))
    rows = run_experiment(config)
    normalized = [row.normalized for row in rows]
    assert all(math.isfinite(v) and v >= 0 for v in normalized)
    for prev, cur in zip(normalized, normalized[1:]):
        assert cur <= 1.10 * prev, f"normalized grew >10%/decade: {normalized}"
    # at r=2 the threshold is exactly the x^(2/3) / log^(A+1) form
    for x in (10**4, 10**5, 10**6, 10**7, 31_622, 5_000_000):
        assert modulus_threshold(x, 2, 1.0) == math.floor(
            x ** (2 / 3) / math.log(x) ** 2
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"
    seq = ",".join(f"{v:.5f}" for v in normalized)
    _report(7, "averaged-error trend", f"(normalized: {seq}; {elapsed:.1f}s)")


def test_criterion_8_determinism_across_workers(tmp_path):
    cache = tmp_path / "acc.rfsv"
    outputs = []
    for threads in ("1", "2", "8"):
        out = tmp_path / f"run{threads}.csv"
        proc = run_rfree(
            "bv-sum", "--r", "2", "--A", "1", "--x", "1e4,1e5",
            "--threads", threads, "--csv", str(out),
            "--cache", str(cache), "--timing", "none",
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _report(8, "determinism", "(bv-sum CSV byte-identical for --threads 1, 2, 8)")
