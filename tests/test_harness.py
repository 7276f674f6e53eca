import math
import tracemalloc

import numpy as np
import pytest

import rfree.harness as harness
from conftest import r_free_flags
from rfree import (
    ConfigError,
    ExperimentConfig,
    SelfCheckError,
    class_counts,
    count_r_free_in_progression,
    decompose,
    error_term,
    modulus_threshold,
    rows_to_csv,
    run_experiment,
    write_plot,
)
from rfree.sieve import _class_counts, _d_terms, _root_mu


def test_threshold_examples():
    assert modulus_threshold(10**6, 2, 1.0) == 52
    assert modulus_threshold(10**3, 2, 0.0) == 14  # the A -> 0 edge
    assert modulus_threshold(10**4, 2, 1.0) == 5


def test_threshold_r2_reduces_to_two_thirds_power():
    for x in (10**3, 10**4, 123_456, 10**6, 10**7, 987_654_321):
        for a in (0.5, 1.0, 2.0):
            explicit = math.floor(x ** (2 / 3) / math.log(x) ** (a + 1))
            if explicit < 1:
                with pytest.raises(ConfigError):
                    modulus_threshold(x, 2, a)
            else:
                assert modulus_threshold(x, 2, a) == explicit, (x, a)


def _strided(x, r, k):
    """R(x; k, l) for every l, by strided counts of the sieved flags."""
    return _class_counts(r, [(x, k, l) for l in range(k)])


@pytest.mark.parametrize("r", [2, 3])
def test_class_counts_match_strided_scan(r):
    # 4, 8, 9, 16, 36, 64 and 178 share primes with some d^r, so their
    # d-terms fill the cosets l = 0 (mod h) with h > 1; k > x leaves most
    # classes empty
    for x in (54_321, 100, 1):
        for k in (1, 2, 3, 4, 7, 8, 9, 12, 16, 36, 64, 97, 150, 178):
            counts = class_counts(x, r, k)
            assert counts.dtype == np.int64
            assert counts.tolist() == _strided(x, r, k), (x, k)


@pytest.mark.parametrize("r", [2, 3])
def test_class_counts_every_class_up_to_200(r):
    # the oracle for any rewrite of the kernel: every class of every k <= 200
    x = 99_991
    got = [c for k in range(1, 201) for c in class_counts(x, r, k).tolist()]
    assert got == _class_counts(r, [(x, k, l) for k in range(1, 201) for l in range(k)])


def reference_count_classes(terms, k):
    """The direct form of ``harness._count_classes``, its reference: one
    int64 entry per m of every partial period, all tallied in one
    bincount, and the whole periods gathered by ``np.add.at``."""
    _, signs, dr, per_d = terms
    c = dr % k
    h = np.gcd(c, k)  # gcd(0, k) = k
    period = k // h
    counts = np.zeros(k, dtype=np.int64)
    by_h = np.zeros(k + 1, dtype=np.int64)
    np.add.at(by_h, h, signs * (per_d // period))
    for hv in np.flatnonzero(by_h).tolist():
        counts[::hv] += by_h[hv]
    left = per_d % period
    n_left = int(left.sum())
    if n_left:
        m = np.arange(1, n_left + 1) - np.repeat(np.cumsum(left) - left, left)
        bins = (m * np.repeat(c, left)) % k + np.repeat(k * (signs < 0), left)
        tally = np.bincount(bins, minlength=2 * k)
        counts += tally[:k] - tally[k:]
    return counts


@pytest.mark.parametrize("block", [64, harness._BLOCK])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_count_classes_match_reference_kernel(r, block, monkeypatch):
    # 46340 is the last k with int32 entries and 46341 the first with int64;
    # a 64-entry block splits every modulus's tally
    monkeypatch.setattr(harness, "_BLOCK", block)
    for x in (10**6, 123_457):
        terms = _d_terms(_root_mu(x, r), x, r)
        for k in (1, 2, 36, 178, 634, 997, 2328, 46340, 46341, 50_000):
            got = harness._count_classes(terms, k)
            assert got.dtype == np.int64
            assert got.tolist() == reference_count_classes(terms, k).tolist(), (x, k)


def test_count_classes_int64_entries_near_the_ceiling():
    # a partial period's m*c stays below 2x, so below x = 2^30 int32 entries
    # would hold for any k; near x = 2^32 the long sides reach m*c ~ k^2,
    # which passes 2^31 from k = 46341 on.  Ten d-terms near d = 208 keep
    # the reference kernel small
    x = 2**32 - 1
    d, signs, dr, per_d = _d_terms(_root_mu(x, 2), x, 2)
    near = (d >= 200) & (d < 216)
    terms = (d[near], signs[near], dr[near], per_d[near])
    for k in (46_340, 46_341, 60_000, 120_000):
        got = harness._count_classes(terms, k)
        assert got.tolist() == reference_count_classes(terms, k).tolist(), k


@pytest.mark.parametrize("block", [1 << 10, harness._BLOCK])
def test_count_classes_peak_memory_is_bounded_by_the_block(block, monkeypatch):
    # at x = 1e8 and k = 634 the reference kernel peaks at about 4.9 MB, one
    # int64 entry per m of every partial period; blocked, the tally holds at most
    # 24 bytes per block entry (m, m // k and its product in int32, and
    # bincount's intp copy), besides about a dozen arrays over the d-terms
    # and the bins
    monkeypatch.setattr(harness, "_BLOCK", block)
    x, k = 10**8, 634
    terms = _d_terms(_root_mu(x, 2), x, 2)
    bound = 24 * block + 128 * terms[0].size + 32 * k
    harness._count_classes(terms, k)
    tracemalloc.start()
    try:
        counts = harness._count_classes(terms, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(counts.sum()) == 60_792_694  # the r-free n <= 1e8
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("limit", [10**6, 997**2])
def test_counts_at_the_table_limit(limit):
    # at x = limit the d-sums run to isqrt(limit), the last index of the mu
    # that each call sieves; mu(997) = -1, so a mu one entry short would
    # change the counts
    x = limit
    for r in (2, 3):
        for k in (1, 4, 36, 178, 997, 1000):
            assert class_counts(x, r, k).tolist() == _strided(x, r, k), (r, k)
        for k, l in ((1, 0), (4, 1), (6, 2), (178, 3), (997, 2)):
            for z in (1.0, 31.6, 1000.0):
                rep = decompose(x, r, k, l, z)
                assert rep.count == count_r_free_in_progression(x, r, k, l)
                assert rep.small_sum + rep.large_sum == rep.count, (r, k, l, z)


def _max_error_of(x, r, k):
    """(l*, max |E(x; k, l)|) of one modulus, as the sweep takes it."""
    return harness._block_maxima(x, r, [(k, class_counts(x, r, k))])[0]


def test_max_error_modulus_one():
    l_star, max_e = _max_error_of(10_000, 2, 1)
    assert l_star == 0
    rep = error_term(10_000, 2, 1, 0)
    assert max_e == abs(rep.error_term)


def test_max_error_matches_per_residue_reports():
    # the scan's per-g main terms equal error_term's, class by class; at
    # x = 100, k = 4 the zero class has gcd 4 and is skipped
    cases = [(100, 2, 4)] + [(99_991, r, k) for r in (2, 3) for k in range(1, 41)]
    for x, r, k in cases:
        reps = [error_term(x, r, k, l) for l in range(k)]
        errs = {rep.l: abs(rep.error_term) for rep in reps if rep.g_is_r_free}
        l_star, max_e = _max_error_of(x, r, k)
        assert max_e == max(errs.values()), (x, r, k)
        assert l_star == min(l for l, e in errs.items() if e == max_e), (x, r, k)
    # one block of many moduli gives each modulus its own answer
    for r in (2, 3):
        block = [(k, class_counts(99_991, r, k)) for k in range(1, 41)]
        assert harness._block_maxima(99_991, r, block) == [
            _max_error_of(99_991, r, k) for k in range(1, 41)]


def test_max_error_tie_goes_to_smallest_residue():
    # x = 8, k = 4: all three admissible classes carry identical errors
    errs = [abs(error_term(8, 2, 4, l).error_term) for l in (1, 2, 3)]
    assert max(errs) - min(errs) < 1e-12
    l_star, _ = _max_error_of(8, 2, 4)
    assert l_star == 1


def test_max_error_partition_self_check():
    counts = class_counts(1000, 2, 6)
    with pytest.raises(SelfCheckError):
        harness._check_partition(6, counts, -5)
    harness._check_partition(6, counts, int(r_free_flags(1000, 2)[1:].sum()))


@pytest.mark.parametrize("r", [2, 3])
def test_sweep_fold_matches_class_counts(r):
    # the sweep counts only k in (K/2, K] and folds every smaller k down
    # from k * floor(K/k); 5 and 31 are odd K, 16 and 40 even
    flags = r_free_flags(10**5, r)
    for x in (10**4, 99_991, 10**5):
        total = int(flags[1 : x + 1].sum())
        bounds = {modulus_threshold(x, r, 0.5), 5, 16, 31, 40}
        for bound in sorted(bounds):
            swept = list(harness._sweep_counts(_root_mu(x, r), x, r, bound, total))
            ks = [k for k, _ in swept]
            assert sorted(ks) == list(range(1, bound + 1))
            # each k follows the modulus it folds from, and those come in
            # ascending order, so one counted modulus is held at a time
            targets = [k * (bound // k) for k in ks]
            assert targets == sorted(targets)
            assert min(targets) == bound // 2 + 1
            for k, counts in swept:
                assert counts.dtype == np.int64
                assert counts.tolist() == class_counts(x, r, k).tolist(), (
                    x, bound, k)
                if k <= 30:
                    assert counts.tolist() == _strided(x, r, k), (x, bound, k)


def test_run_experiment_small():
    config = ExperimentConfig(r=2, log_power=1.0, xs=(10**4,), timing="none")
    rows = run_experiment(config)
    assert len(rows) == 1
    row = rows[0]
    assert row.modulus_bound == 5
    # serial recomputation of the fold
    expected = 0.0
    for k in range(1, 6):
        expected += _max_error_of(10**4, 2, k)[1]
    assert row.error_sum == expected
    assert abs(row.normalized - row.error_sum * math.log(10**4) / 10**4) < 1e-9
    assert row.wall_seconds == 0.0


def test_density_at_one_million():
    density = int(r_free_flags(10**6, 2)[1:].sum()) / 10**6
    assert 0.59 < density < 0.62


def test_monotone_aggregation():
    # a smaller threshold can only reduce the sum of nonnegative terms
    x = 10**4
    maxima = [_max_error_of(x, 2, k)[1] for k in range(1, 6)]
    partial = sum(maxima[:3])
    full = sum(maxima)
    assert partial <= full


def test_csv_shape():
    config = ExperimentConfig(r=2, log_power=1.0, xs=(10**4,), timing="none")
    text = rows_to_csv(run_experiment(config))
    lines = text.strip().split("\n")
    assert lines[0] == "x,r,A,K,S,normalized,wall_seconds"
    cells = lines[1].split(",")
    assert cells[0] == "10000" and cells[1] == "2" and cells[3] == "5"
    # normalized column recomputes from the S column
    s_val = float(cells[4])
    norm = float(cells[5])
    assert abs(norm - s_val * math.log(10**4) / 10**4) < 1e-9


def test_plot_writers(tmp_path):
    config = ExperimentConfig(r=2, log_power=1.0, xs=(10**4,), timing="none")
    rows = run_experiment(config)
    out = tmp_path / "trend.svg"
    write_plot(rows, out)
    body = out.read_text()
    assert "<svg" in body


def test_threshold_r3_values():
    # exponent is r/(r+1) = 3/4, log power A + r - 1
    assert modulus_threshold(10**6, 3, 1.0) == 11
    assert modulus_threshold(10**5, 3, 0.5) == 12
